// Trained-model pin (ctest label `golden`): for four seeded corpora, the
// bytes SaveEagerRecognizer writes after EagerRecognizer::Train, and the
// train report's mover and tweak-pass figures, must match the line committed
// in tests/data/trained_models.txt — under every SIMD tier this build and
// CPU can force. The models serialize every double at max_digits10, so equal
// bytes mean bit-identical parameters. Any intentional change to training
// numerics regenerates the file with:
//
//   GRANDMA_REGEN_GOLDEN=1 ./golden_tests --gtest_filter='*TrainedModelGolden*'
//
// and the new lines are reviewed like any other source change.
//
// The committed lines come from an x86-64 build without FMA, where no
// compiler can fuse a multiply-add. Only src/linalg's simd.cc, matrix.cc and
// stats.cc are built with -ffp-contract=off; the feature extractor,
// vector.cc, cholesky.cc and classifier training are not, so a target with
// FMA (aarch64, or x86-64 with -mfma / -march=native) may contract them and
// train different bits. The pin holds only where it was generated, and the
// test skips everywhere else.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "classify/lexicon_selection.h"
#include "eager/eager_recognizer.h"
#include "io/serialize.h"
#include "linalg/simd.h"
#include "synth/generator.h"
#include "synth/lexicon.h"
#include "synth/sets.h"

namespace grandma {
namespace {

namespace simd = linalg::simd;

constexpr std::uint64_t kTrainSeed = 1991;

#if defined(__x86_64__) && !defined(__FMA__) && !defined(__FP_FAST_FMA)
constexpr bool kPinnedPlatform = true;
#else
constexpr bool kPinnedPlatform = false;
#endif

std::string GoldenPath() { return std::string(GRANDMA_TEST_DATA_DIR) + "/trained_models.txt"; }

classify::GestureTrainingSet Corpus(const std::vector<synth::PathSpec>& specs,
                                    std::size_t per_class) {
  return synth::ToTrainingSet(
      synth::GenerateSet(specs, synth::NoiseModel{}, per_class, kTrainSeed));
}

classify::GestureTrainingSet Lexicon200() {
  synth::LexiconOptions options;
  options.num_classes = 200;
  return Corpus(synth::MakeExtensiveLexicon(options), 8);
}

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

}  // namespace
}  // namespace grandma
