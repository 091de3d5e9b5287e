#include "eager/subgesture_labeler.h"

#include <gtest/gtest.h>

#include "classify/gesture_classifier.h"
#include "features/extractor.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace grandma::eager {
namespace {

struct Fixture {
  classify::GestureTrainingSet training;
  classify::GestureClassifier full;
  SubgesturePartition partition;
};

Fixture MakeUdFixture() {
  Fixture f;
  const auto specs = synth::MakeUpDownSpecs();
  synth::NoiseModel noise;
  f.training = synth::ToTrainingSet(synth::GenerateSet(specs, noise, 15, 1991));
  f.full.Train(f.training);
  f.partition = LabelSubgestures(f.full, f.training);
  return f;
}

TEST(SubgestureLabelerTest, PartitionSizesConsistent) {
  const Fixture f = MakeUdFixture();
  EXPECT_EQ(f.partition.num_classes(), 2u);
  EXPECT_EQ(f.partition.per_gesture.size(), 30u);
  std::size_t total = 0;
  for (const auto& pg : f.partition.per_gesture) {
    total += pg.subgestures.size();
  }
  EXPECT_EQ(total, f.partition.total_complete() + f.partition.total_incomplete());
  EXPECT_GT(f.partition.total_complete(), 0u);
  EXPECT_GT(f.partition.total_incomplete(), 0u);
}

TEST(SubgestureLabelerTest, CompletenessIsSuffixClosed) {
  // Figure 5's defining property: complete means this prefix AND every
  // larger one classify to the true class, so complete flags form a suffix.
  const Fixture f = MakeUdFixture();
  for (const auto& pg : f.partition.per_gesture) {
    bool seen_complete = false;
    for (const auto& sub : pg.subgestures) {
      if (seen_complete) {
        EXPECT_TRUE(sub.complete) << "incomplete after complete in the same gesture";
        EXPECT_EQ(sub.predicted_class, pg.true_class);
      }
      seen_complete = seen_complete || sub.complete;
    }
    // The full gesture itself is complete iff it classifies correctly; with
    // U/D that should essentially always hold.
    EXPECT_TRUE(pg.subgestures.back().complete);
  }
}

// The subgesture of every feature row: rows follow the enumeration order.
std::vector<const LabeledSubgesture*> SubgestureByRow(const SubgesturePartition& partition) {
  std::vector<const LabeledSubgesture*> by_row;
  for (const auto& pg : partition.per_gesture) {
    for (const auto& sub : pg.subgestures) {
      by_row.push_back(&sub);
    }
  }
  return by_row;
}

TEST(SubgestureLabelerTest, SetMembershipKeyedByPredictedClass) {
  const Fixture f = MakeUdFixture();
  const std::vector<const LabeledSubgesture*> by_row = SubgestureByRow(f.partition);
  for (classify::ClassId c = 0; c < 2; ++c) {
    for (const std::size_t row : f.partition.complete_sets[c]) {
      EXPECT_EQ(by_row[row]->predicted_class, c);
      EXPECT_TRUE(by_row[row]->complete);
    }
    for (const std::size_t row : f.partition.incomplete_sets[c]) {
      EXPECT_EQ(by_row[row]->predicted_class, c);
      EXPECT_FALSE(by_row[row]->complete);
    }
  }
}

// One row per subgesture, numbered in enumeration order, each holding the
// masked features of its prefix.
TEST(SubgestureLabelerTest, FeatureRowsFollowEnumerationOrder) {
  const Fixture f = MakeUdFixture();
  const std::vector<const LabeledSubgesture*> by_row = SubgestureByRow(f.partition);
  ASSERT_EQ(f.partition.dim, f.full.mask().count());
  ASSERT_EQ(f.partition.features.size(), by_row.size() * f.partition.dim);
  for (std::size_t r = 0; r < by_row.size(); ++r) {
    ASSERT_EQ(by_row[r]->row, r);
  }
  const auto& examples = f.training.ExamplesOf(f.partition.per_gesture[0].true_class);
  const LabeledSubgesture& sub = f.partition.per_gesture[0].subgestures[2];
  const linalg::Vector expect = f.full.mask().Project(
      features::ExtractFeatures(examples[0].Subgesture(sub.prefix_len)));
  const linalg::VecView row = f.partition.Row(sub.row);
  for (std::size_t i = 0; i < f.partition.dim; ++i) {
    EXPECT_EQ(row[i], expect[i]) << i;
  }
}

TEST(SubgestureLabelerTest, SharedHorizontalPrefixIsMixed) {
  // U and D share their horizontal first segment; prefixes along it are
  // ambiguous, so whichever class they classify to, roughly half the
  // gestures (the other class's examples) must have them incomplete.
  const Fixture f = MakeUdFixture();
  EXPECT_GT(f.partition.total_incomplete(), 100u);  // plenty of ambiguous prefixes
}

TEST(SubgestureLabelerTest, MinPrefixRespected) {
  const Fixture f = MakeUdFixture();
  for (const auto& pg : f.partition.per_gesture) {
    ASSERT_FALSE(pg.subgestures.empty());
    EXPECT_GE(pg.subgestures.front().prefix_len, 3u);
    // Prefix lengths increase by one.
    for (std::size_t i = 1; i < pg.subgestures.size(); ++i) {
      EXPECT_EQ(pg.subgestures[i].prefix_len, pg.subgestures[i - 1].prefix_len + 1);
    }
    EXPECT_EQ(pg.subgestures.back().prefix_len, pg.subgestures.back().gesture_len);
  }
}

TEST(SubgestureLabelerTest, RebuildSetsHonorsMoves) {
  Fixture f = MakeUdFixture();
  // Manually move the first complete subgesture of the first gesture.
  for (auto& pg : f.partition.per_gesture) {
    for (auto& sub : pg.subgestures) {
      if (sub.complete) {
        sub.moved_to_incomplete = static_cast<int>(sub.predicted_class);
        goto moved;
      }
    }
  }
moved:
  const std::size_t complete_before = f.partition.total_complete();
  RebuildSets(f.partition);
  EXPECT_EQ(f.partition.total_complete(), complete_before - 1);
}

TEST(SubgestureLabelerTest, TooShortGesturesSkipped) {
  classify::GestureTrainingSet tiny;
  // Classifier needs real data; reuse U/D but add a 2-point gesture, which
  // must simply be skipped by the labeler.
  const auto specs = synth::MakeUpDownSpecs();
  synth::NoiseModel noise;
  tiny = synth::ToTrainingSet(synth::GenerateSet(specs, noise, 5, 1));
  tiny.Add("U", geom::Gesture({{0, 0, 0}, {1, 0, 1}}));
  classify::GestureClassifier full;
  full.Train(tiny);
  const SubgesturePartition partition = LabelSubgestures(full, tiny);
  EXPECT_EQ(partition.per_gesture.size(), 10u);  // the 2-point gesture skipped
}

}  // namespace
}  // namespace grandma::eager
