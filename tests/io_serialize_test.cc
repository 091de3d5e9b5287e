#include "io/serialize.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <istream>
#include <random>
#include <sstream>
#include <string>

#include "eager/evaluation.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace grandma::io {
namespace {

classify::GestureTrainingSet MakeTrainingSet() {
  synth::NoiseModel noise;
  return synth::ToTrainingSet(synth::GenerateSet(synth::MakeUpDownSpecs(), noise, 8, 42));
}

TEST(GestureSetIoTest, RoundTripPreservesEverything) {
  const classify::GestureTrainingSet original = MakeTrainingSet();
  std::stringstream buffer;
  ASSERT_TRUE(SaveGestureSet(original, buffer));
  const auto loaded = LoadGestureSetOr(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_classes(), original.num_classes());
  EXPECT_EQ(loaded->total_examples(), original.total_examples());
  for (classify::ClassId c = 0; c < original.num_classes(); ++c) {
    EXPECT_EQ(loaded->ClassName(c), original.ClassName(c));
    ASSERT_EQ(loaded->ExamplesOf(c).size(), original.ExamplesOf(c).size());
    for (std::size_t e = 0; e < original.ExamplesOf(c).size(); ++e) {
      EXPECT_EQ(loaded->ExamplesOf(c)[e], original.ExamplesOf(c)[e]);
    }
  }
}

TEST(GestureSetIoTest, RejectsWrongHeader) {
  std::stringstream buffer("some-other-format v9\n");
  EXPECT_EQ(LoadGestureSetOr(buffer).status().code(), robust::StatusCode::kCorruptSnapshot);
}

TEST(GestureSetIoTest, RejectsTruncated) {
  const classify::GestureTrainingSet original = MakeTrainingSet();
  std::stringstream buffer;
  ASSERT_TRUE(SaveGestureSet(original, buffer));
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_EQ(LoadGestureSetOr(truncated).status().code(), robust::StatusCode::kTruncated);
}

TEST(GestureSetIoTest, RejectsClassNameWithSpaces) {
  classify::GestureTrainingSet set;
  set.Add("bad name", geom::Gesture({{0, 0, 0}, {1, 1, 1}}));
  std::stringstream buffer;
  EXPECT_FALSE(SaveGestureSet(set, buffer));
}

TEST(ClassifierIoTest, RoundTripClassifiesIdentically) {
  const classify::GestureTrainingSet training = MakeTrainingSet();
  classify::GestureClassifier classifier;
  classifier.Train(training);

  std::stringstream buffer;
  ASSERT_TRUE(SaveClassifier(classifier, buffer));
  const auto loaded = LoadClassifierOr(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_classes(), classifier.num_classes());
  EXPECT_EQ(loaded->ClassName(0), classifier.ClassName(0));

  synth::NoiseModel noise;
  const auto test = synth::GenerateSet(synth::MakeUpDownSpecs(), noise, 5, 7);
  for (const auto& batch : test) {
    for (const auto& sample : batch.samples) {
      const auto a = classifier.Classify(sample.gesture);
      const auto b = loaded->Classify(sample.gesture);
      EXPECT_EQ(a.class_id, b.class_id);
      EXPECT_NEAR(a.score, b.score, 1e-9);
      EXPECT_NEAR(a.probability, b.probability, 1e-9);
    }
  }
}

TEST(ClassifierIoTest, UntrainedSaveFails) {
  classify::GestureClassifier untrained;
  std::stringstream buffer;
  EXPECT_FALSE(SaveClassifier(untrained, buffer));
}

TEST(EagerIoTest, RoundTripFiresIdentically) {
  const classify::GestureTrainingSet training = MakeTrainingSet();
  eager::EagerRecognizer recognizer;
  recognizer.Train(training);

  std::stringstream buffer;
  ASSERT_TRUE(SaveEagerRecognizer(recognizer, buffer));
  const auto loaded = LoadEagerRecognizerOr(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->min_prefix_points(), recognizer.min_prefix_points());

  synth::NoiseModel noise;
  const auto test = synth::GenerateSet(synth::MakeUpDownSpecs(), noise, 10, 9);
  const auto eval_a = eager::EvaluateEager(recognizer, test);
  const auto eval_b = eager::EvaluateEager(*loaded, test);
  ASSERT_EQ(eval_a.outcomes.size(), eval_b.outcomes.size());
  for (std::size_t i = 0; i < eval_a.outcomes.size(); ++i) {
    EXPECT_EQ(eval_a.outcomes[i].points_seen, eval_b.outcomes[i].points_seen);
    EXPECT_EQ(eval_a.outcomes[i].eager_class, eval_b.outcomes[i].eager_class);
  }
}

TEST(EagerIoTest, RejectsGarbageAucMode) {
  const classify::GestureTrainingSet training = MakeTrainingSet();
  eager::EagerRecognizer recognizer;
  recognizer.Train(training);
  std::stringstream buffer;
  ASSERT_TRUE(SaveEagerRecognizer(recognizer, buffer));
  std::string text = buffer.str();
  const auto pos = text.find("auc_mode normal");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 15, "auc_mode bogus!");
  std::stringstream bad(text);
  EXPECT_EQ(LoadEagerRecognizerOr(bad).status().code(), robust::StatusCode::kCorruptSnapshot);
}

// A file whose AUC section was trained on all 13 features but whose full
// classifier masks two of them out: the AUC would read past the masked
// feature rows, so the load must fail.
TEST(EagerIoTest, RejectsAucDimensionOtherThanTheMaskCount) {
  const classify::GestureTrainingSet training = MakeTrainingSet();
  eager::EagerRecognizer all;
  all.Train(training);
  eager::EagerTrainOptions options;
  options.mask = features::FeatureMask::GeometryOnly();
  eager::EagerRecognizer geometry;
  geometry.Train(training, options);

  std::stringstream all_text;
  std::stringstream geometry_text;
  ASSERT_TRUE(SaveEagerRecognizer(all, all_text));
  ASSERT_TRUE(SaveEagerRecognizer(geometry, geometry_text));
  const std::string a = all_text.str();
  const std::string g = geometry_text.str();
  const auto a_auc = a.find("auc_mode normal");
  const auto g_auc = g.find("auc_mode normal");
  ASSERT_NE(a_auc, std::string::npos);
  ASSERT_NE(g_auc, std::string::npos);

  std::stringstream spliced(g.substr(0, g_auc) + a.substr(a_auc));
  EXPECT_EQ(LoadEagerRecognizerOr(spliced).status().code(),
            robust::StatusCode::kCorruptSnapshot);
  std::stringstream intact(g);
  EXPECT_TRUE(LoadEagerRecognizerOr(intact).ok());
}

// Fuzz-style hardening tests: truncation at every prefix and seeded byte
// mutations across all three formats must yield a Status or a value — never
// a crash, an uncaught exception, or a giant allocation.

template <typename Loader>
void CheckEveryPrefix(const std::string& text, Loader load) {
  for (std::size_t len = 0; len < text.size(); ++len) {
    std::stringstream truncated(text.substr(0, len));
    ASSERT_NO_THROW((void)load(truncated)) << "prefix length " << len;
  }
}

template <typename Loader>
void CheckSeededMutations(const std::string& text, Loader load, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 100; ++round) {
    std::string mutated = text;
    const std::size_t flips = 1 + rng() % 4;
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] = static_cast<char>(rng() % 256);
    }
    std::stringstream in(mutated);
    ASSERT_NO_THROW((void)load(in)) << "round " << round;
  }
}

TEST(FuzzIoTest, GestureSetSurvivesTruncationAndMutation) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveGestureSet(MakeTrainingSet(), buffer));
  const std::string text = buffer.str();
  CheckEveryPrefix(text, [](std::istream& in) { return LoadGestureSetOr(in); });
  CheckSeededMutations(text, [](std::istream& in) { return LoadGestureSetOr(in); }, 101);
}

TEST(FuzzIoTest, ClassifierSurvivesTruncationAndMutation) {
  classify::GestureClassifier classifier;
  classifier.Train(MakeTrainingSet());
  std::stringstream buffer;
  ASSERT_TRUE(SaveClassifier(classifier, buffer));
  const std::string text = buffer.str();
  CheckEveryPrefix(text, [](std::istream& in) { return LoadClassifierOr(in); });
  CheckSeededMutations(text, [](std::istream& in) { return LoadClassifierOr(in); }, 202);
}

TEST(FuzzIoTest, EagerRecognizerSurvivesTruncationAndMutation) {
  eager::EagerRecognizer recognizer;
  recognizer.Train(MakeTrainingSet());
  std::stringstream buffer;
  ASSERT_TRUE(SaveEagerRecognizer(recognizer, buffer));
  const std::string text = buffer.str();
  CheckEveryPrefix(text, [](std::istream& in) { return LoadEagerRecognizerOr(in); });
  CheckSeededMutations(text, [](std::istream& in) { return LoadEagerRecognizerOr(in); }, 303);
}

TEST(FuzzIoTest, HugeDeclaredCountsAreRejectedNotAllocated) {
  // Corrupt headers declaring absurd sizes must fail by parse error.
  std::stringstream s1("grandma-gestureset v1\nclasses 18446744073709551615\n");
  EXPECT_EQ(LoadGestureSetOr(s1).status().code(), robust::StatusCode::kCorruptSnapshot);
  std::stringstream s2("grandma-gestureset v1\nclasses 1\nclass x 99999999999\n");
  EXPECT_EQ(LoadGestureSetOr(s2).status().code(), robust::StatusCode::kCorruptSnapshot);
}

TEST(FileIoTest, FileRoundTripAndMissingFile) {
  const classify::GestureTrainingSet original = MakeTrainingSet();
  const std::string path = "/tmp/grandma_io_test.gestureset";
  ASSERT_TRUE(SaveGestureSetFile(original, path));
  const auto loaded = LoadGestureSetFileOr(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->total_examples(), original.total_examples());
  std::remove(path.c_str());
  EXPECT_EQ(LoadGestureSetFileOr(path).status().code(), robust::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(SaveGestureSetFile(original, "/nonexistent-dir/x"));
}

}  // namespace
}  // namespace grandma::io
