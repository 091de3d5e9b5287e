#include "classify/lexicon_selection.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.h"

namespace grandma::classify {

namespace {

// Dense upper-triangular pair index for c < d.
std::size_t PairIndex(std::size_t c, std::size_t d, std::size_t n) {
  return c * n + d;
}

}  // namespace

LexiconSelectionReport SelectLexicon(const GestureClassifier& classifier,
                                     const GestureTrainingSet& train,
                                     const LexiconSelectionOptions& options) {
  if (!classifier.trained()) {
    throw std::invalid_argument("SelectLexicon: classifier is not trained");
  }
  const std::size_t n = classifier.num_classes();
  if (train.num_classes() != n) {
    throw std::invalid_argument("SelectLexicon: classifier/training class count mismatch");
  }
  if (n < 2) {
    throw std::invalid_argument("SelectLexicon: need at least two classes");
  }
  const std::size_t k = std::min(std::max<std::size_t>(options.target_classes, 2), n);

  LexiconSelectionReport report;

  // The evidence: train-set confusion and pairwise mean separation. Both
  // tier-independent (see header).
  const ConfusionMatrix confusion = EvaluateClassifier(classifier, train);
  report.full_train_accuracy = confusion.Accuracy();

  // The class means as one feature-major block, so one QuadraticDistances
  // call measures mean c against every later mean: separation[c][d] for all
  // d > c.
  const LinearClassifier& linear = classifier.linear();
  std::vector<const linalg::Vector*> class_means(n);
  for (std::size_t d = 0; d < n; ++d) {
    class_means[d] = &linear.mean(d);
  }
  const std::vector<double> means = linalg::FeatureMajorBlock(class_means);
  std::vector<double> separation(n * n, 0.0);
  std::vector<double> confusion_rate(n * n, 0.0);
  std::vector<double> effective(n * n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t examples_c = train.ExamplesOf(c).size();
    linalg::QuadraticDistances(linear.mean(c).view(), linear.inverse_covariance(),
                               means.data() + c + 1, n,
                               linalg::MutVecView(separation.data() + PairIndex(c, c + 1, n),
                                                  n - c - 1));
    for (std::size_t d = c + 1; d < n; ++d) {
      const std::size_t idx = PairIndex(c, d, n);
      const std::size_t cross = confusion.count(c, d) + confusion.count(d, c);
      const std::size_t denom = examples_c + train.ExamplesOf(d).size();
      const double rate =
          denom > 0 ? static_cast<double>(cross) / static_cast<double>(denom) : 0.0;
      confusion_rate[idx] = rate;
      effective[idx] = separation[idx] / (1.0 + options.confusion_weight * rate);
    }
  }

  std::vector<bool> alive(n, true);
  std::size_t alive_count = n;

  // Total effective separation of `c` to every other surviving class — the
  // crowding measure that decides which member of the worst pair to drop.
  auto crowding = [&](std::size_t c) {
    double total = 0.0;
    for (std::size_t d = 0; d < n; ++d) {
      if (d == c || !alive[d]) {
        continue;
      }
      total += effective[PairIndex(std::min(c, d), std::max(c, d), n)];
    }
    return total;
  };

  while (alive_count > k) {
    // Worst surviving pair: smallest effective separation, ties toward the
    // lexicographically first (c, d) — fully deterministic.
    std::size_t worst_c = n;
    std::size_t worst_d = n;
    double worst_e = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (!alive[c]) {
        continue;
      }
      for (std::size_t d = c + 1; d < n; ++d) {
        if (!alive[d]) {
          continue;
        }
        const double e = effective[PairIndex(c, d, n)];
        if (worst_c == n || e < worst_e) {
          worst_c = c;
          worst_d = d;
          worst_e = e;
        }
      }
    }
    if (worst_c == n) {
      break;  // unreachable while alive_count >= 2, kept as a guard
    }
    // Drop the more crowded member (smaller total separation to the rest);
    // ties drop the higher id, keeping the earlier, more canonical class.
    const double crowd_c = crowding(worst_c);
    const double crowd_d = crowding(worst_d);
    const std::size_t victim = crowd_c < crowd_d ? worst_c : worst_d;
    const std::size_t partner = victim == worst_c ? worst_d : worst_c;

    DroppedClass drop;
    drop.class_id = victim;
    drop.name = train.ClassName(victim);
    drop.nearest = partner;
    drop.nearest_name = train.ClassName(partner);
    const std::size_t idx = PairIndex(worst_c, worst_d, n);
    drop.separation = separation[idx];
    drop.confusion_rate = confusion_rate[idx];
    drop.effective_separation = effective[idx];
    drop.collision = separation[idx] < options.collision_epsilon;
    drop.drop_order = report.dropped.size();
    if (drop.collision) {
      ++report.collisions;
    }
    report.dropped.push_back(std::move(drop));

    alive[victim] = false;
    --alive_count;
  }

  report.min_surviving_separation = 0.0;
  bool first_pair = true;
  for (std::size_t c = 0; c < n; ++c) {
    if (!alive[c]) {
      continue;
    }
    report.selected.push_back(c);
    report.selected_names.push_back(train.ClassName(c));
    for (std::size_t d = c + 1; d < n; ++d) {
      if (!alive[d]) {
        continue;
      }
      const double e = effective[PairIndex(c, d, n)];
      if (first_pair || e < report.min_surviving_separation) {
        report.min_surviving_separation = e;
        first_pair = false;
      }
    }
  }
  return report;
}

GestureTrainingSet FilterClasses(const GestureTrainingSet& full,
                                 const std::vector<ClassId>& keep) {
  GestureTrainingSet out;
  for (ClassId c : keep) {
    const std::string& name = full.ClassName(c);  // throws on bad id
    for (const geom::Gesture& g : full.ExamplesOf(c)) {
      out.Add(name, g);
    }
  }
  return out;
}

std::string LexiconSelectionReport::ToString() const {
  std::ostringstream out;
  out << "lexicon selection: kept " << selected.size() << ", dropped " << dropped.size()
      << " (" << collisions << " collisions), full train accuracy " << full_train_accuracy
      << ", min surviving separation " << min_surviving_separation << "\n";
  for (const DroppedClass& d : dropped) {
    out << "  drop[" << d.drop_order << "] " << d.name << " (id " << d.class_id
        << "): nearest " << d.nearest_name << ", separation " << d.separation
        << ", confusion " << d.confusion_rate << ", effective " << d.effective_separation
        << (d.collision ? " [COLLISION]" : "") << "\n";
  }
  return out.str();
}

std::string LexiconSelectionReport::ToJson() const {
  std::ostringstream out;
  out << "{\"kept\": " << selected.size() << ", \"dropped\": " << dropped.size()
      << ", \"collisions\": " << collisions
      << ", \"full_train_accuracy\": " << full_train_accuracy
      << ", \"min_surviving_separation\": " << min_surviving_separation << ", \"drops\": [";
  for (std::size_t i = 0; i < dropped.size(); ++i) {
    const DroppedClass& d = dropped[i];
    if (i > 0) {
      out << ", ";
    }
    out << "{\"name\": \"" << d.name << "\", \"nearest\": \"" << d.nearest_name
        << "\", \"separation\": " << d.separation
        << ", \"confusion_rate\": " << d.confusion_rate
        << ", \"effective_separation\": " << d.effective_separation
        << ", \"collision\": " << (d.collision ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace grandma::classify
