// Section 4.6: the Ambiguous/Unambiguous Classifier (AUC). A linear
// classifier over the 2C subgesture sets; D(s) is true iff the AUC places s
// in any complete set. After closed-form training the AUC is deliberately
// biased toward ambiguity: incomplete-class constants get +ln(5) (ambiguous
// judged five times more likely a priori), then every incomplete training
// subgesture still classified complete forces the offending complete class's
// constant down "by just enough plus a little more".
#ifndef GRANDMA_SRC_EAGER_AUC_H_
#define GRANDMA_SRC_EAGER_AUC_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "classify/linear_classifier.h"
#include "eager/subgesture_labeler.h"
#include "linalg/simd.h"
#include "linalg/vector.h"

namespace grandma::eager {

struct AucOptions {
  // Added to every incomplete class's constant term: ln(5) encodes the
  // "five times more likely ambiguous" prior of Section 4.6.
  double ambiguous_bias = std::log(5.0);
  // The "little more" added on top of "just enough" during tweaking,
  // relative to the score gap being corrected.
  double tweak_margin = 0.01;
  std::size_t max_tweak_passes = 100;
};

struct AucTrainReport {
  // Classifier-training diagnostics.
  double ridge_used = 0.0;
  // Tweak-pass diagnostics.
  std::size_t tweak_passes = 0;
  std::size_t tweak_adjustments = 0;
  bool converged = true;
  // Degenerate-mode flags (see Auc::Mode).
  bool degenerate = false;
};

// The trained AUC.
//
// Thread-safety: immutable after Train/FromParameters; Unambiguous and
// Classify are pure reads, safe to call concurrently.
class Auc {
 public:
  // How this AUC answers D(s).
  enum class Mode {
    kUntrained,
    kNormal,             // linear classifier over the non-empty sets
    kAlwaysAmbiguous,    // no complete subgestures existed in training
    kAlwaysUnambiguous,  // no incomplete subgestures existed in training
  };

  // Identity of one AUC class.
  struct SetInfo {
    bool complete = false;
    // The full-classifier class this set is named for (C-c or I-c).
    classify::ClassId full_class = 0;
  };

  Auc() = default;

  // Trains on the (post-move) partition. Empty sets are dropped; when only
  // one side (complete/incomplete) has data the AUC degenerates to a
  // constant answer.
  AucTrainReport Train(const SubgesturePartition& partition, const AucOptions& options = {});

  Mode mode() const { return mode_; }
  bool trained() const { return mode_ != Mode::kUntrained; }

  // D(s): true iff `masked_features` is judged an unambiguous prefix.
  // Allocates internal scratch; the per-point hot path uses UnambiguousView.
  bool Unambiguous(linalg::VecView masked_features) const;
  bool Unambiguous(const linalg::Vector& masked_features) const {
    return Unambiguous(masked_features.view());
  }

  // Zero-allocation D(s): evaluates the per-set scores into caller scratch
  // (`scores` sized num_sets()) and takes the argmax — no probability, no
  // Mahalanobis, which a doneness test never needs. The winning set (and
  // therefore the answer) is bit-identical to Unambiguous.
  bool UnambiguousView(linalg::VecView masked_features, linalg::MutVecView scores) const;

  // "No row fired" result for FirstUnambiguous.
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Batched D(s) over `batch` feature rows read through a column list: row
  // r's masked feature i is rows[r * stride + columns[i]] for
  // i < linear().dimension(), so unprojected snapshots go in as they are.
  // Returns the index of the FIRST row judged unambiguous, or kNone. Row
  // decisions are bit-identical to UnambiguousView on that row's gathered
  // features. `scores` is caller scratch sized num_sets().
  std::size_t FirstUnambiguous(const double* rows, std::size_t batch, std::size_t stride,
                               const std::size_t* columns, linalg::MutVecView scores) const;

  // The winning AUC set for diagnostics; meaningful only in kNormal mode.
  classify::Classification Classify(const linalg::Vector& masked_features) const;
  const SetInfo& ClassInfo(classify::ClassId auc_class) const { return sets_.at(auc_class); }
  std::size_t num_sets() const { return sets_.size(); }
  const classify::LinearClassifier& linear() const { return linear_; }

  // Reassembles an AUC from persisted parameters (io::serialize).
  static Auc FromParameters(Mode mode, classify::LinearClassifier linear,
                            std::vector<SetInfo> sets);

 private:
  // Recomputes num_complete_ / complete_prefix_ from sets_.
  void IndexSets();
  // D(s) for one masked feature row of a complete-prefix layout: the batched
  // fire check as a batch of one, screened by `filter` when given.
  bool WinnerComplete(linalg::VecView masked_features,
                      const linalg::simd::FireFilter* filter) const;

  Mode mode_ = Mode::kUntrained;
  classify::LinearClassifier linear_;
  std::vector<SetInfo> sets_;
  // Complete-set count, and whether all complete sets occupy the id prefix
  // [0, num_complete_). Train always lays sets out that way; FromParameters
  // accepts any order, so the fused winner-in-prefix fire check is gated on
  // this flag (non-prefix layouts take the evaluate + argmax path).
  std::size_t num_complete_ = 0;
  bool complete_prefix_ = false;
  // Float mirror of linear_ for FirstUnambiguous's fire check, built once the
  // biases are final (empty unless the block is large enough to use it).
  // Last, so the members the per-point path reads keep their offsets: in
  // the middle it cost GDP's 1-point AddSpan about 10 ns per point.
  linalg::simd::FireFilter filter_;
};

}  // namespace grandma::eager

#endif  // GRANDMA_SRC_EAGER_AUC_H_
