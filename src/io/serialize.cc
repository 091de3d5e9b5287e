#include "io/serialize.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "io/atomic_file.h"

namespace grandma::io {

namespace {

constexpr const char* kGestureSetFamily = "grandma-gestureset";
constexpr const char* kClassifierFamily = "grandma-classifier";
constexpr const char* kEagerFamily = "grandma-eager";
constexpr const char* kFormatVersion = "v1";
constexpr const char* kGestureSetHeader = "grandma-gestureset v1";
constexpr const char* kClassifierHeader = "grandma-classifier v1";
constexpr const char* kEagerHeader = "grandma-eager v1";

// Sanity caps for declared sizes in loaded files. A corrupt or hostile size
// field must produce a parse error (std::nullopt), never a multi-gigabyte
// allocation or bad_alloc unwinding through the loader. The caps are far
// above anything the system writes (13 features, dozens of classes).
constexpr std::size_t kMaxVectorSize = std::size_t{1} << 16;
constexpr std::size_t kMaxMatrixSide = std::size_t{1} << 13;
constexpr std::size_t kMaxClasses = std::size_t{1} << 16;
constexpr std::size_t kMaxExamplesPerClass = std::size_t{1} << 20;
constexpr std::size_t kMaxPointsPerGesture = std::size_t{1} << 22;
constexpr std::size_t kMaxUpfrontReserve = 4096;

void WriteVector(std::ostream& out, const linalg::Vector& v) {
  out << v.size();
  for (double x : v) {
    out << ' ' << x;
  }
  out << '\n';
}

std::optional<linalg::Vector> ReadVector(std::istream& in) {
  std::size_t n = 0;
  if (!(in >> n) || n > kMaxVectorSize) {
    return std::nullopt;
  }
  linalg::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(in >> v[i])) {
      return std::nullopt;
    }
  }
  return v;
}

void WriteMatrix(std::ostream& out, const linalg::Matrix& m) {
  out << m.rows() << ' ' << m.cols();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out << ' ' << m(r, c);
    }
  }
  out << '\n';
}

std::optional<linalg::Matrix> ReadMatrix(std::istream& in) {
  std::size_t rows = 0;
  std::size_t cols = 0;
  if (!(in >> rows >> cols) || rows > kMaxMatrixSide || cols > kMaxMatrixSide) {
    return std::nullopt;
  }
  linalg::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!(in >> m(r, c))) {
        return std::nullopt;
      }
    }
  }
  return m;
}

// Class names may contain spaces in principle; we forbid them on save and
// read single tokens.
bool WriteName(std::ostream& out, const std::string& name) {
  if (name.find_first_of(" \t\n") != std::string::npos || name.empty()) {
    return false;
  }
  out << name;
  return true;
}

// Distinguishes the ways a header can be wrong, so the Or-loaders can report
// a precise reason instead of a bare parse failure.
enum class HeaderCheck { kOk, kTruncated, kWrongFamily, kWrongVersion };

HeaderCheck ReadHeader(std::istream& in, const char* family) {
  std::string word1;
  if (!(in >> word1)) {
    return HeaderCheck::kTruncated;
  }
  if (word1 != family) {
    return HeaderCheck::kWrongFamily;
  }
  std::string word2;
  if (!(in >> word2)) {
    return HeaderCheck::kTruncated;
  }
  if (word2 != kFormatVersion) {
    return HeaderCheck::kWrongVersion;
  }
  return HeaderCheck::kOk;
}

void WriteLinear(std::ostream& out, const classify::LinearClassifier& linear) {
  out << "classes " << linear.num_classes() << " dimension " << linear.dimension() << '\n';
  for (classify::ClassId c = 0; c < linear.num_classes(); ++c) {
    out << "bias " << linear.bias(c) << '\n';
    out << "weights ";
    WriteVector(out, linear.weights(c));
    out << "mean ";
    WriteVector(out, linear.mean(c));
  }
  out << "invcov ";
  WriteMatrix(out, linear.inverse_covariance());
}

std::optional<classify::LinearClassifier> ReadLinear(std::istream& in) {
  std::string tag;
  std::size_t num_classes = 0;
  std::size_t dimension = 0;
  if (!(in >> tag >> num_classes) || tag != "classes" || num_classes > kMaxClasses) {
    return std::nullopt;
  }
  if (!(in >> tag >> dimension) || tag != "dimension" || dimension > kMaxVectorSize) {
    return std::nullopt;
  }
  std::vector<linalg::Vector> weights;
  std::vector<double> biases;
  std::vector<linalg::Vector> means;
  for (std::size_t c = 0; c < num_classes; ++c) {
    double bias = 0.0;
    if (!(in >> tag >> bias) || tag != "bias") {
      return std::nullopt;
    }
    if (!(in >> tag) || tag != "weights") {
      return std::nullopt;
    }
    auto w = ReadVector(in);
    if (!w || w->size() != dimension) {
      return std::nullopt;
    }
    if (!(in >> tag) || tag != "mean") {
      return std::nullopt;
    }
    auto m = ReadVector(in);
    if (!m || m->size() != dimension) {
      return std::nullopt;
    }
    biases.push_back(bias);
    weights.push_back(std::move(*w));
    means.push_back(std::move(*m));
  }
  if (!(in >> tag) || tag != "invcov") {
    return std::nullopt;
  }
  auto invcov = ReadMatrix(in);
  if (!invcov || invcov->rows() != dimension || invcov->cols() != dimension) {
    return std::nullopt;
  }
  return classify::LinearClassifier::FromParameters(std::move(weights), std::move(biases),
                                                    std::move(means), std::move(*invcov));
}

void WriteMask(std::ostream& out, const features::FeatureMask& mask) {
  out << "mask";
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    out << ' ' << (mask.test(static_cast<features::Feature>(i)) ? 1 : 0);
  }
  out << '\n';
}

std::optional<features::FeatureMask> ReadMask(std::istream& in) {
  std::string tag;
  if (!(in >> tag) || tag != "mask") {
    return std::nullopt;
  }
  features::FeatureMask mask;
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    int bit = 0;
    if (!(in >> bit)) {
      return std::nullopt;
    }
    mask.set(static_cast<features::Feature>(i), bit != 0);
  }
  return mask;
}

bool WriteGestureClassifierBody(std::ostream& out,
                                const classify::GestureClassifier& classifier) {
  out << "names";
  for (classify::ClassId c = 0; c < classifier.num_classes(); ++c) {
    out << ' ';
    if (!WriteName(out, classifier.ClassName(c))) {
      return false;
    }
  }
  out << '\n';
  WriteMask(out, classifier.mask());
  WriteLinear(out, classifier.linear());
  return true;
}

std::optional<classify::GestureClassifier> ReadGestureClassifierBody(std::istream& in) {
  std::string tag;
  if (!(in >> tag) || tag != "names") {
    return std::nullopt;
  }
  // Names run to end of line.
  std::string rest;
  std::getline(in, rest);
  classify::ClassRegistry registry;
  {
    std::istringstream names(rest);
    std::string name;
    while (names >> name) {
      registry.Intern(name);
    }
  }
  auto mask = ReadMask(in);
  if (!mask) {
    return std::nullopt;
  }
  auto linear = ReadLinear(in);
  if (!linear) {
    return std::nullopt;
  }
  if (linear->num_classes() != registry.size() || linear->dimension() != mask->count()) {
    return std::nullopt;
  }
  return classify::GestureClassifier::FromParameters(std::move(registry), *mask,
                                                     std::move(*linear));
}

std::optional<classify::GestureTrainingSet> ReadGestureSetBody(std::istream& in) {
  std::string tag;
  std::size_t num_classes = 0;
  if (!(in >> tag >> num_classes) || tag != "classes" || num_classes > kMaxClasses) {
    return std::nullopt;
  }
  classify::GestureTrainingSet set;
  for (std::size_t c = 0; c < num_classes; ++c) {
    std::string name;
    std::size_t num_examples = 0;
    if (!(in >> tag >> name >> num_examples) || tag != "class" ||
        num_examples > kMaxExamplesPerClass) {
      return std::nullopt;
    }
    for (std::size_t e = 0; e < num_examples; ++e) {
      std::size_t num_points = 0;
      if (!(in >> tag >> num_points) || tag != "example" ||
          num_points > kMaxPointsPerGesture) {
        return std::nullopt;
      }
      geom::Gesture g;
      g.Reserve(std::min(num_points, kMaxUpfrontReserve));
      for (std::size_t p = 0; p < num_points; ++p) {
        geom::TimedPoint pt;
        if (!(in >> pt.x >> pt.y >> pt.t)) {
          return std::nullopt;
        }
        g.AppendPoint(pt);
      }
      set.Add(name, std::move(g));
    }
  }
  return set;
}

std::optional<eager::EagerRecognizer> ReadEagerBody(std::istream& in) {
  std::string tag;
  std::size_t min_prefix = 0;
  if (!(in >> tag >> min_prefix) || tag != "min_prefix" ||
      min_prefix > kMaxPointsPerGesture) {
    return std::nullopt;
  }
  auto full = ReadGestureClassifierBody(in);
  if (!full) {
    return std::nullopt;
  }
  std::string mode_name;
  if (!(in >> tag >> mode_name) || tag != "auc_mode") {
    return std::nullopt;
  }
  eager::Auc auc;
  if (mode_name == "always_ambiguous") {
    auc = eager::Auc::FromParameters(eager::Auc::Mode::kAlwaysAmbiguous, {}, {});
  } else if (mode_name == "always_unambiguous") {
    auc = eager::Auc::FromParameters(eager::Auc::Mode::kAlwaysUnambiguous, {}, {});
  } else if (mode_name == "normal") {
    std::size_t num_sets = 0;
    if (!(in >> tag >> num_sets) || tag != "sets" || num_sets > kMaxClasses) {
      return std::nullopt;
    }
    std::vector<eager::Auc::SetInfo> sets;
    for (std::size_t k = 0; k < num_sets; ++k) {
      std::string kind;
      classify::ClassId full_class = 0;
      if (!(in >> kind >> full_class) || (kind != "C" && kind != "I")) {
        return std::nullopt;
      }
      sets.push_back(eager::Auc::SetInfo{kind == "C", full_class});
    }
    auto linear = ReadLinear(in);
    // The AUC reads masked features: a dimension other than the mask's
    // count would index past the feature rows it is given.
    if (!linear || linear->num_classes() != sets.size() ||
        linear->dimension() != full->mask().count()) {
      return std::nullopt;
    }
    auc = eager::Auc::FromParameters(eager::Auc::Mode::kNormal, std::move(*linear),
                                     std::move(sets));
  } else {
    return std::nullopt;
  }
  return eager::EagerRecognizer::FromParameters(std::move(*full), std::move(auc), min_prefix);
}

// Header check + body parse, mapping each failure to a precise Status.
template <typename T, typename BodyFn>
robust::StatusOr<T> LoadOr(std::istream& in, const char* family, const char* what,
                           BodyFn read_body) {
  switch (ReadHeader(in, family)) {
    case HeaderCheck::kTruncated:
      return robust::Status::Truncated(std::string(what) + ": stream ends inside the header");
    case HeaderCheck::kWrongFamily:
      return robust::Status::CorruptSnapshot(std::string(what) + ": not a " + family +
                                             " stream");
    case HeaderCheck::kWrongVersion:
      return robust::Status::VersionMismatch(std::string(what) +
                                             ": unknown format version (this binary speaks " +
                                             kFormatVersion + ")");
    case HeaderCheck::kOk:
      break;
  }
  auto value = read_body(in);
  if (!value.has_value()) {
    return in.eof()
               ? robust::Status::Truncated(std::string(what) + ": stream ends mid-parse")
               : robust::Status::CorruptSnapshot(std::string(what) + ": malformed contents");
  }
  return std::move(*value);
}

}  // namespace

// --- Gesture sets ---

bool SaveGestureSet(const classify::GestureTrainingSet& set, std::ostream& out) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << kGestureSetHeader << '\n';
  out << "classes " << set.num_classes() << '\n';
  for (classify::ClassId c = 0; c < set.num_classes(); ++c) {
    out << "class ";
    if (!WriteName(out, set.ClassName(c))) {
      return false;
    }
    out << ' ' << set.ExamplesOf(c).size() << '\n';
    for (const geom::Gesture& g : set.ExamplesOf(c)) {
      out << "example " << g.size() << '\n';
      for (const geom::TimedPoint& p : g) {
        out << p.x << ' ' << p.y << ' ' << p.t << '\n';
      }
    }
  }
  return static_cast<bool>(out);
}

robust::StatusOr<classify::GestureTrainingSet> LoadGestureSetOr(std::istream& in) {
  return LoadOr<classify::GestureTrainingSet>(in, kGestureSetFamily, "gesture set",
                                              ReadGestureSetBody);
}

// --- Classifiers ---

bool SaveClassifier(const classify::GestureClassifier& classifier, std::ostream& out) {
  if (!classifier.trained()) {
    return false;
  }
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << kClassifierHeader << '\n';
  return WriteGestureClassifierBody(out, classifier) && static_cast<bool>(out);
}

robust::StatusOr<classify::GestureClassifier> LoadClassifierOr(std::istream& in) {
  return LoadOr<classify::GestureClassifier>(in, kClassifierFamily, "classifier",
                                             ReadGestureClassifierBody);
}

// --- Eager recognizers ---

bool SaveEagerRecognizer(const eager::EagerRecognizer& recognizer, std::ostream& out) {
  if (!recognizer.trained()) {
    return false;
  }
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << kEagerHeader << '\n';
  out << "min_prefix " << recognizer.min_prefix_points() << '\n';
  if (!WriteGestureClassifierBody(out, recognizer.full())) {
    return false;
  }
  const eager::Auc& auc = recognizer.auc();
  out << "auc_mode ";
  switch (auc.mode()) {
    case eager::Auc::Mode::kNormal:
      out << "normal\n";
      break;
    case eager::Auc::Mode::kAlwaysAmbiguous:
      out << "always_ambiguous\n";
      break;
    case eager::Auc::Mode::kAlwaysUnambiguous:
      out << "always_unambiguous\n";
      break;
    case eager::Auc::Mode::kUntrained:
      return false;
  }
  if (auc.mode() == eager::Auc::Mode::kNormal) {
    out << "sets " << auc.num_sets() << '\n';
    for (classify::ClassId k = 0; k < auc.num_sets(); ++k) {
      const eager::Auc::SetInfo& info = auc.ClassInfo(k);
      out << (info.complete ? "C" : "I") << ' ' << info.full_class << '\n';
    }
    WriteLinear(out, auc.linear());
  }
  return static_cast<bool>(out);
}

robust::StatusOr<eager::EagerRecognizer> LoadEagerRecognizerOr(std::istream& in) {
  return LoadOr<eager::EagerRecognizer>(in, kEagerFamily, "eager recognizer", ReadEagerBody);
}

// --- File wrappers ---

namespace {
// All savers go through the atomic temp+rename path: a crash or full disk
// mid-save never leaves a torn file at `path`.
template <typename SaveFn, typename T>
bool SaveFile(SaveFn fn, const T& value, const std::string& path) {
  return AtomicWriteFile(path, [&](std::ostream& out) { return fn(value, out); }).ok();
}
template <typename LoadFn>
auto LoadFileOr(LoadFn fn, const std::string& path)
    -> decltype(fn(std::declval<std::istream&>())) {
  std::ifstream in(path);
  if (!in) {
    return robust::Status::FailedPrecondition("cannot open " + path);
  }
  return fn(in);
}
}  // namespace

bool SaveGestureSetFile(const classify::GestureTrainingSet& set, const std::string& path) {
  return SaveFile(SaveGestureSet, set, path);
}
robust::StatusOr<classify::GestureTrainingSet> LoadGestureSetFileOr(const std::string& path) {
  return LoadFileOr(LoadGestureSetOr, path);
}
bool SaveClassifierFile(const classify::GestureClassifier& classifier, const std::string& path) {
  return SaveFile(SaveClassifier, classifier, path);
}
robust::StatusOr<classify::GestureClassifier> LoadClassifierFileOr(const std::string& path) {
  return LoadFileOr(LoadClassifierOr, path);
}
bool SaveEagerRecognizerFile(const eager::EagerRecognizer& recognizer, const std::string& path) {
  return SaveFile(SaveEagerRecognizer, recognizer, path);
}
robust::StatusOr<eager::EagerRecognizer> LoadEagerRecognizerFileOr(const std::string& path) {
  return LoadFileOr(LoadEagerRecognizerOr, path);
}

}  // namespace grandma::io
