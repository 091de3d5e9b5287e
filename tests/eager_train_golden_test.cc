// Golden pins (ctest label `golden`), both checked under every SIMD tier
// this build and CPU can force:
//
// - Trained models: for four seeded corpora, the bytes SaveEagerRecognizer
//   writes after EagerRecognizer::Train, and the train report's mover and
//   tweak-pass figures, must match the line committed in
//   tests/data/trained_models.txt. The models serialize every double at
//   max_digits10, so equal bytes mean bit-identical parameters.
// - Decisions: every held-out stroke of the same corpora, replayed through
//   EagerStream::AddSpan in Workspace::kBatchPoints-point chunks, must
//   reproduce its line in tests/data/golden_decisions/<corpus>.txt: the fire
//   index, the class, score, probability and Mahalanobis^2 at the fire and
//   at the stroke end (doubles in hexfloat), and the n-best ids at both.
//
// Any intentional change to training or recognition numerics regenerates
// the files with:
//
//   GRANDMA_REGEN_GOLDEN=1 ./golden_tests
//
// and the new lines are reviewed like any other source change.
//
// The committed lines come from an x86-64 build without FMA, where no
// compiler can fuse a multiply-add. Only src/linalg's simd.cc, matrix.cc and
// stats.cc are built with -ffp-contract=off; the feature extractor,
// vector.cc, cholesky.cc and classifier training are not, so a target with
// FMA (aarch64, or x86-64 with -mfma / -march=native) may contract them and
// train different bits. The pins hold only where they were generated, and
// the tests skip everywhere else.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "classify/lexicon_selection.h"
#include "eager/eager_recognizer.h"
#include "eager/workspace.h"
#include "io/serialize.h"
#include "linalg/simd.h"
#include "synth/generator.h"
#include "synth/lexicon.h"
#include "synth/sets.h"

namespace grandma {
namespace {

namespace simd = linalg::simd;

constexpr std::uint64_t kTrainSeed = 1991;
// Seed of the held-out strokes the decision pin replays.
constexpr std::uint64_t kHeldOutSeed = 2027;

#if defined(__x86_64__) && !defined(__FMA__) && !defined(__FP_FAST_FMA)
constexpr bool kPinnedPlatform = true;
#else
constexpr bool kPinnedPlatform = false;
#endif

std::string GoldenPath() { return std::string(GRANDMA_TEST_DATA_DIR) + "/trained_models.txt"; }

std::vector<synth::PathSpec> Lexicon200Specs() {
  synth::LexiconOptions options;
  options.num_classes = 200;
  return synth::MakeExtensiveLexicon(options);
}

classify::GestureTrainingSet Corpus(const std::vector<synth::PathSpec>& specs,
                                    std::size_t per_class) {
  return synth::ToTrainingSet(
      synth::GenerateSet(specs, synth::NoiseModel{}, per_class, kTrainSeed));
}

classify::GestureTrainingSet Lexicon200() { return Corpus(Lexicon200Specs(), 8); }

// The 50 survivors of SelectLexicon at target 50 over the 200-class corpus,
// as bench/lexicon_scale selects them.
classify::GestureTrainingSet Selected50() {
  const classify::GestureTrainingSet train200 = Lexicon200();
  classify::GestureClassifier full200;
  full200.Train(train200);
  classify::LexiconSelectionOptions options;
  options.target_classes = 50;
  return classify::FilterClasses(train200,
                                 classify::SelectLexicon(full200, train200, options).selected);
}

classify::GestureTrainingSet CorpusNamed(const std::string& name) {
  if (name == "gdp11") {
    return Corpus(synth::MakeGdpSpecs(), 10);
  }
  if (name == "dirs8") {
    return Corpus(synth::MakeEightDirectionSpecs(), 10);
  }
  if (name == "lexicon200") {
    return Lexicon200();
  }
  return Selected50();
}

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

// One golden line: the model digest plus the train report, doubles in
// hexfloat so the line pins their bits.
std::string TrainedModelLine(const std::string& name,
                             const classify::GestureTrainingSet& training) {
  eager::EagerRecognizer recognizer;
  const eager::EagerTrainReport report = recognizer.Train(training);
  std::ostringstream model;
  EXPECT_TRUE(io::SaveEagerRecognizer(recognizer, model));
  const std::string bytes = model.str();
  char line[512];
  std::snprintf(line, sizeof(line),
                "%s bytes=%zu fnv1a64=%016llx complete=%zu incomplete=%zu threshold=%a "
                "floored_out=%zu moved=%zu tweak_passes=%zu tweak_adjustments=%zu",
                name.c_str(), bytes.size(), static_cast<unsigned long long>(Fnv1a64(bytes)),
                report.complete_before_move, report.incomplete_before_move,
                report.mover.threshold, report.mover.floored_out, report.mover.moved,
                report.auc.tweak_passes, report.auc.tweak_adjustments);
  return line;
}

std::vector<std::string> ReadLines() {
  std::vector<std::string> lines;
  std::ifstream in(GoldenPath());
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::string GoldenLine(const std::string& name) {
  for (const std::string& line : ReadLines()) {
    if (line.rfind(name + " ", 0) == 0) {
      return line;
    }
  }
  return "";
}

// Replaces (or appends) `name`'s line, keeping every other line in place.
void WriteGoldenLine(const std::string& name, const std::string& fresh) {
  std::vector<std::string> lines = ReadLines();
  if (lines.empty()) {
    lines.push_back(
        "# EagerRecognizer::Train pins; see tests/eager_train_golden_test.cc. "
        "Regenerate with GRANDMA_REGEN_GOLDEN=1.");
  }
  bool replaced = false;
  for (std::string& line : lines) {
    if (line.rfind(name + " ", 0) == 0) {
      line = fresh;
      replaced = true;
    }
  }
  if (!replaced) {
    lines.push_back(fresh);
  }
  std::ofstream out(GoldenPath(), std::ios::trunc);
  for (const std::string& line : lines) {
    out << line << "\n";
  }
  ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
}

class TrainedModelGolden : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { simd::ResetTier(); }
};

TEST_P(TrainedModelGolden, MatchesCommittedLineUnderEveryTier) {
  if (!kPinnedPlatform) {
    GTEST_SKIP() << "trained_models.txt pins an x86-64 build without FMA; this target may "
                    "contract multiply-adds outside src/linalg and train other bits";
  }
  const std::string name = GetParam();
  const classify::GestureTrainingSet training = CorpusNamed(name);

  std::string expected = GoldenLine(name);
  if (std::getenv("GRANDMA_REGEN_GOLDEN") != nullptr) {
    simd::ResetTier();
    expected = TrainedModelLine(name, training);
    WriteGoldenLine(name, expected);
  }
  ASSERT_FALSE(expected.empty()) << "no line for " << name << " in " << GoldenPath()
                                 << " — regenerate with GRANDMA_REGEN_GOLDEN=1";

  std::size_t tiers = 0;
  for (const simd::Tier t : {simd::Tier::kScalar, simd::Tier::kSse2, simd::Tier::kAvx2}) {
    if (!simd::ForceTier(t)) {
      continue;
    }
    ++tiers;
    EXPECT_EQ(TrainedModelLine(name, training), expected) << "tier " << simd::TierName(t);
  }
  EXPECT_GE(tiers, 1u);
}

INSTANTIATE_TEST_SUITE_P(Corpora, TrainedModelGolden,
                         ::testing::Values("gdp11", "dirs8", "lexicon200", "selected50"),
                         [](const ::testing::TestParamInfo<const char*>& corpus) {
                           return std::string(corpus.param);
                         });

// --- Decision pin --------------------------------------------------------

std::string DecisionsPath(const std::string& name) {
  return std::string(GRANDMA_TEST_DATA_DIR) + "/golden_decisions/" + name + ".txt";
}

std::vector<synth::PathSpec> SpecsNamed(const std::string& name) {
  if (name == "gdp11") {
    return synth::MakeGdpSpecs();
  }
  if (name == "dirs8") {
    return synth::MakeEightDirectionSpecs();
  }
  return Lexicon200Specs();  // lexicon200 and the selected50 subset of it
}

std::size_t HeldOutPerClass(const std::string& name) {
  if (name == "lexicon200") {
    return 3;
  }
  return name == "selected50" ? 6 : 10;
}

// Class, score, probability and Mahalanobis^2 are all bit-identical across
// tiers, so one line serves every tier.
void AppendClassification(std::string& line, const char* tag,
                          const classify::Classification& c) {
  char field[192];
  std::snprintf(field, sizeof(field), " %s=%zu,%a,%a %s_m2=%a", tag, c.class_id, c.score,
                c.probability, tag, c.mahalanobis_squared);
  line += field;
}

void AppendNBestIds(std::string& line, const char* tag,
                    std::span<const classify::NBestEntry> nbest) {
  line += ' ';
  line += tag;
  line += '=';
  for (std::size_t k = 0; k < nbest.size(); ++k) {
    line += (k == 0 ? "" : ",") + std::to_string(nbest[k].class_id);
  }
}

// One line per held-out stroke of every class `recognizer` knows, in spec
// order: the stroke replayed through AddSpan in kBatchPoints-point chunks,
// then classified at its end.
std::string DecisionLines(const std::string& name, const eager::EagerRecognizer& recognizer) {
  const std::vector<synth::LabeledSamples> held_out =
      synth::GenerateSet(SpecsNamed(name), synth::NoiseModel{}, HeldOutPerClass(name),
                         kHeldOutSeed);
  std::string out;
  eager::EagerStream stream(recognizer);
  stream.SetNBest(classify::kMaxNBest);
  for (std::size_t spec = 0; spec < held_out.size(); ++spec) {
    if (!recognizer.full().registry().Contains(held_out[spec].class_name)) {
      continue;
    }
    for (std::size_t k = 0; k < held_out[spec].samples.size(); ++k) {
      const std::vector<geom::TimedPoint>& points = held_out[spec].samples[k].gesture.points();
      stream.Reset();
      eager::FireEvent fire;
      for (std::size_t begin = 0; begin < points.size();
           begin += eager::Workspace::kBatchPoints) {
        eager::FireEvent chunk_fire;
        stream.AddSpan(std::span<const geom::TimedPoint>(points).subspan(
                           begin, std::min(eager::Workspace::kBatchPoints,
                                           points.size() - begin)),
                       &chunk_fire);
        if (chunk_fire.fired) {
          fire = chunk_fire;
        }
      }
      std::array<classify::NBestEntry, classify::kMaxNBest> end_nbest{};
      classify::Classification end;
      const std::size_t end_count = stream.ClassifyNowNBest(end_nbest, &end);

      std::string line = "spec=" + std::to_string(spec) + " sample=" + std::to_string(k) +
                         " points=" + std::to_string(points.size()) + " fired_at=" +
                         (fire.fired ? std::to_string(fire.fired_at) : std::string("-"));
      if (fire.fired) {
        AppendClassification(line, "fire", fire.classification);
        AppendNBestIds(line, "fire_nbest",
                       std::span<const classify::NBestEntry>(fire.nbest.data(),
                                                             fire.nbest_count));
      }
      AppendClassification(line, "end", end);
      AppendNBestIds(line, "end_nbest",
                     std::span<const classify::NBestEntry>(end_nbest.data(), end_count));
      out += line + "\n";
    }
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// The first line where `actual` and `expected` differ, for the failure text.
std::string FirstDifference(const std::string& actual, const std::string& expected) {
  std::istringstream a(actual);
  std::istringstream e(expected);
  std::string la;
  std::string le;
  for (std::size_t n = 1;; ++n) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_e = static_cast<bool>(std::getline(e, le));
    if (!more_a && !more_e) {
      return "";
    }
    if (!more_a || !more_e || la != le) {
      return "line " + std::to_string(n) + ":\n  got      " + (more_a ? la : "<eof>") +
             "\n  expected " + (more_e ? le : "<eof>");
    }
  }
}

class DecisionGolden : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { simd::ResetTier(); }
};

TEST_P(DecisionGolden, MatchesCommittedFileUnderEveryTier) {
  if (!kPinnedPlatform) {
    GTEST_SKIP() << "golden_decisions pins an x86-64 build without FMA; this target may "
                    "contract multiply-adds outside src/linalg and train other bits";
  }
  const std::string name = GetParam();
  simd::ResetTier();
  eager::EagerRecognizer recognizer;
  recognizer.Train(CorpusNamed(name));

  const std::string path = DecisionsPath(name);
  std::string expected = ReadFile(path);
  if (std::getenv("GRANDMA_REGEN_GOLDEN") != nullptr) {
    expected = DecisionLines(name, recognizer);
    std::ofstream out(path, std::ios::trunc);
    out << expected;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
  }
  ASSERT_FALSE(expected.empty()) << "no decisions in " << path
                                 << " — regenerate with GRANDMA_REGEN_GOLDEN=1";

  std::size_t tiers = 0;
  for (const simd::Tier t : {simd::Tier::kScalar, simd::Tier::kSse2, simd::Tier::kAvx2}) {
    if (!simd::ForceTier(t)) {
      continue;
    }
    ++tiers;
    const std::string actual = DecisionLines(name, recognizer);
    EXPECT_TRUE(actual == expected) << "tier " << simd::TierName(t) << ", " << path << " "
                                    << FirstDifference(actual, expected);
  }
  EXPECT_GE(tiers, 1u);
}

INSTANTIATE_TEST_SUITE_P(Corpora, DecisionGolden,
                         ::testing::Values("gdp11", "dirs8", "lexicon200", "selected50"),
                         [](const ::testing::TestParamInfo<const char*>& corpus) {
                           return std::string(corpus.param);
                         });

}  // namespace
}  // namespace grandma
