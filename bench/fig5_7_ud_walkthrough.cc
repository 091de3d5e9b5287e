// Reproduces the Figures 5-7 walkthrough: the U/D example the paper uses to
// explain eager-recognizer training.
//
//   Figure 5: label each subgesture of U and D training examples with the
//             full classifier's verdict; uppercase = complete (this prefix
//             and all larger ones classify correctly), lowercase =
//             incomplete. Along the shared horizontal segment some D
//             subgestures are *accidentally* complete.
//   Figure 6: after the move step those accidental completes are incomplete;
//             every ambiguous subgesture is now incomplete.
//   Figure 7: the trained AUC is conservative — it never claims an ambiguous
//             subgesture is unambiguous, at the cost of some late fires.
#include <cstdio>

#include "eager/accidental_mover.h"
#include "eager/auc.h"
#include "eager/subgesture_labeler.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace {

using namespace grandma;

// Prints one line per training gesture: a letter per subgesture.
// Uppercase = currently complete; lowercase = incomplete.
void PrintLabels(const classify::GestureTrainingSet& training,
                 const eager::SubgesturePartition& partition, std::size_t rows_per_class) {
  std::vector<std::size_t> printed(training.num_classes(), 0);
  for (const auto& pg : partition.per_gesture) {
    if (printed[pg.true_class]++ >= rows_per_class) {
      continue;
    }
    std::printf("  %s: ", training.ClassName(pg.true_class).c_str());
    for (const auto& sub : pg.subgestures) {
      char c = training.ClassName(sub.predicted_class)[0];
      std::printf("%c", sub.EffectivelyComplete() ? c : static_cast<char>(c + 32));
    }
    std::printf("\n");
  }
}

// Prints the AUC's per-subgesture verdict: '^' = judged unambiguous,
// '.' = still ambiguous.
void PrintAucVerdicts(const classify::GestureTrainingSet& training,
                      const eager::SubgesturePartition& partition, const eager::Auc& auc,
                      std::size_t rows_per_class) {
  std::vector<std::size_t> printed(training.num_classes(), 0);
  for (const auto& pg : partition.per_gesture) {
    if (printed[pg.true_class]++ >= rows_per_class) {
      continue;
    }
    std::printf("  %s: ", training.ClassName(pg.true_class).c_str());
    for (const auto& sub : pg.subgestures) {
      std::printf("%c", auc.Unambiguous(partition.Row(sub.row)) ? '^' : '.');
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  const auto specs = synth::MakeUpDownSpecs();
  synth::NoiseModel noise;
  const auto batches = synth::GenerateSet(specs, noise, /*per_class=*/15, /*seed=*/1991);
  classify::GestureTrainingSet training = synth::ToTrainingSet(batches);

  classify::GestureClassifier full;
  full.Train(training);

  eager::SubgesturePartition partition = eager::LabelSubgestures(full, training);

  std::printf("=== Figure 5: complete (UPPER) / incomplete (lower) subgesture labels ===\n");
  std::printf("U = right-then-up, D = right-then-down; both share the horizontal prefix.\n");
  PrintLabels(training, partition, 4);
  std::printf("  complete: %zu, incomplete: %zu\n\n", partition.total_complete(),
              partition.total_incomplete());

  // Count accidental completes before the move for the report: complete
  // subgestures sitting well before the corner.
  const eager::MoverReport report = eager::MoveAccidentallyComplete(full, partition);
  std::printf("=== Figure 6: after moving accidentally complete subgestures ===\n");
  std::printf("move threshold = %.2f (50%% of min full-class to incomplete-set distance "
              "%.2f; %zu distances floored out); moved %zu subgestures\n",
              report.threshold, report.min_distance, report.floored_out, report.moved);
  PrintLabels(training, partition, 4);
  std::printf("  complete: %zu, incomplete: %zu\n\n", partition.total_complete(),
              partition.total_incomplete());

  eager::Auc auc;
  const eager::AucTrainReport auc_report = auc.Train(partition);
  std::printf("=== Figure 7: AUC verdicts on the training subgestures ===\n");
  std::printf("('^' = judged unambiguous, '.' = ambiguous); tweak passes: %zu, "
              "adjustments: %zu\n",
              auc_report.tweak_passes, auc_report.tweak_adjustments);
  PrintAucVerdicts(training, partition, auc, 4);

  // The paper's conservativeness claim, quantified: the AUC never marks an
  // ambiguous (incomplete) training subgesture unambiguous.
  std::size_t premature = 0;
  std::size_t missed = 0;
  std::size_t complete_total = 0;
  for (const auto& pg : partition.per_gesture) {
    for (const auto& sub : pg.subgestures) {
      const bool fired = auc.Unambiguous(partition.Row(sub.row));
      if (!sub.EffectivelyComplete() && fired) {
        ++premature;
      }
      if (sub.EffectivelyComplete()) {
        ++complete_total;
        missed += fired ? 0 : 1;
      }
    }
  }
  std::printf("\nconservativeness: %zu ambiguous subgestures judged unambiguous (paper: 0 "
              "by construction)\n",
              premature);
  std::printf("cost of conservatism: %zu of %zu unambiguous subgestures judged ambiguous\n",
              missed, complete_total);
  return 0;
}
