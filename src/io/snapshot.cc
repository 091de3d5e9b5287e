#include "io/snapshot.h"

#include <array>
#include <cctype>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "io/atomic_file.h"
#include "io/serialize.h"

namespace grandma::io {

namespace {

constexpr const char* kMagic = "grandma-snapshot";
// Far above any model the system trains (a GDP-scale eager snapshot is tens
// of kilobytes); a corrupt length field must fail fast, not allocate.
constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 26;

const char* KindName(char kind) {
  switch (kind) {
    case 'c':
      return "classifier";
    case 'e':
      return "eager";
    case 'b':
      return "bundle";
  }
  return "?";
}

std::array<std::uint32_t, 256> MakeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// Serializes the snapshot container around an already-produced payload.
bool WriteContainer(std::ostream& out, std::string_view kind, const std::string& payload) {
  out << kMagic << " v" << kSnapshotFormatVersion << ' ' << kind << '\n';
  out << "bytes " << payload.size() << " crc32 " << std::hex << std::setw(8)
      << std::setfill('0') << Crc32(payload) << std::dec << '\n';
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return static_cast<bool>(out);
}

// Parses the container and hands back the verified payload bytes.
robust::StatusOr<std::string> ReadContainer(std::istream& in, std::string_view expected_kind) {
  std::string magic;
  std::string version;
  std::string kind;
  if (!(in >> magic)) {
    return robust::Status::Truncated("snapshot: empty stream");
  }
  if (magic != kMagic) {
    return robust::Status::CorruptSnapshot("snapshot: bad magic '" + magic + "'");
  }
  if (!(in >> version)) {
    return robust::Status::Truncated("snapshot: stream ends inside the header");
  }
  const std::string expected_version = "v" + std::to_string(kSnapshotFormatVersion);
  if (version != expected_version) {
    // A stream that ends inside the version token ("v" of "v1") is a
    // truncation, not a model from the future.
    if (in.eof() && expected_version.compare(0, version.size(), version) == 0) {
      return robust::Status::Truncated("snapshot: stream ends inside the version token");
    }
    return robust::Status::VersionMismatch("snapshot: format version '" + version +
                                           "', this binary speaks " + expected_version);
  }
  if (!(in >> kind)) {
    return robust::Status::Truncated("snapshot: stream ends inside the header");
  }
  if (kind != expected_kind) {
    return robust::Status::CorruptSnapshot("snapshot: holds a '" + kind + "', expected '" +
                                           std::string(expected_kind) + "'");
  }
  std::string tag;
  std::size_t bytes = 0;
  std::string crc_hex;
  if (!(in >> tag)) {
    return robust::Status::Truncated("snapshot: stream ends before the length line");
  }
  if (tag != "bytes" || !(in >> bytes)) {
    return robust::Status::CorruptSnapshot("snapshot: malformed length field");
  }
  if (bytes > kMaxPayloadBytes) {
    return robust::Status::CorruptSnapshot("snapshot: absurd payload length " +
                                           std::to_string(bytes));
  }
  if (!(in >> tag >> crc_hex)) {
    return in.eof() ? robust::Status::Truncated("snapshot: stream ends before the checksum")
                    : robust::Status::CorruptSnapshot("snapshot: malformed checksum field");
  }
  if (tag != "crc32" || crc_hex.size() != 8) {
    return robust::Status::CorruptSnapshot("snapshot: malformed checksum field");
  }
  std::uint32_t declared_crc = 0;
  for (char c : crc_hex) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      return robust::Status::CorruptSnapshot("snapshot: non-hex checksum digit");
    }
    const char lower = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    declared_crc = declared_crc * 16 +
                   static_cast<std::uint32_t>(lower <= '9' ? lower - '0' : lower - 'a' + 10);
  }
  // The single separator newline before the payload bytes.
  const int sep = in.get();
  if (sep == std::char_traits<char>::eof()) {
    return bytes == 0 && declared_crc == Crc32("")
               ? robust::StatusOr<std::string>(std::string())
               : robust::Status::Truncated("snapshot: stream ends before the payload");
  }
  if (sep != '\n') {
    return robust::Status::CorruptSnapshot("snapshot: malformed header terminator");
  }
  std::string payload(bytes, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in.gcount()) != bytes) {
    return robust::Status::Truncated("snapshot: payload has " + std::to_string(in.gcount()) +
                                     " of " + std::to_string(bytes) + " declared bytes");
  }
  const std::uint32_t actual_crc = Crc32(payload);
  if (actual_crc != declared_crc) {
    return robust::Status::CorruptSnapshot("snapshot: payload CRC mismatch");
  }
  return payload;
}

template <typename Saver, typename T>
bool SaveSnapshot(const char* kind, Saver saver, const T& value, std::ostream& out) {
  std::ostringstream payload;
  if (!saver(value, payload)) {
    return false;
  }
  return WriteContainer(out, kind, payload.str());
}

template <typename T, typename Loader>
robust::StatusOr<T> LoadSnapshot(const char* kind, Loader loader, std::istream& in) {
  auto payload = ReadContainer(in, kind);
  if (!payload.ok()) {
    return payload.status();
  }
  std::istringstream body(*payload);
  auto value = loader(body);
  if (!value.ok()) {
    // The CRC matched, so the payload is what the writer produced — a parse
    // failure here means the writer itself emitted something unreadable.
    return robust::Status::CorruptSnapshot(std::string("snapshot: CRC-valid ") + kind +
                                           " payload failed to parse");
  }
  return std::move(*value);
}

template <typename SaveFileFn, typename V>
robust::Status SaveSnapshotFile(SaveFileFn save, const V& value, const std::string& path) {
  return AtomicWriteFile(path, [&](std::ostream& out) { return save(value, out); });
}

template <typename LoadFn>
auto LoadSnapshotFile(const char* what, LoadFn load, const std::string& path)
    -> decltype(load(std::declval<std::istream&>())) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return robust::Status::FailedPrecondition(std::string("cannot open ") + what +
                                              " snapshot " + path);
  }
  return load(in);
}

}  // namespace

std::uint32_t Crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = MakeCrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- Generic container framing ---

bool WriteSnapshotContainer(std::ostream& out, std::string_view kind,
                            const std::string& payload) {
  if (kind.empty()) {
    return false;
  }
  for (char c : kind) {
    // The header is whitespace-tokenized, so a kind containing whitespace
    // would write a container no reader can parse back.
    if (std::isspace(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return WriteContainer(out, kind, payload);
}

robust::StatusOr<std::string> ReadSnapshotContainer(std::istream& in, std::string_view kind) {
  return ReadContainer(in, kind);
}

// --- Classifier snapshots ---

bool SaveClassifierSnapshot(const classify::GestureClassifier& classifier, std::ostream& out) {
  return SaveSnapshot(KindName('c'), [](const auto& v, std::ostream& o) {
    return SaveClassifier(v, o);
  }, classifier, out);
}

robust::StatusOr<classify::GestureClassifier> LoadClassifierSnapshot(std::istream& in) {
  return LoadSnapshot<classify::GestureClassifier>(
      KindName('c'), [](std::istream& body) { return LoadClassifierOr(body); }, in);
}

robust::Status SaveClassifierSnapshotFile(const classify::GestureClassifier& classifier,
                                          const std::string& path) {
  return SaveSnapshotFile(SaveClassifierSnapshot, classifier, path);
}

robust::StatusOr<classify::GestureClassifier> LoadClassifierSnapshotFile(
    const std::string& path) {
  return LoadSnapshotFile("classifier", LoadClassifierSnapshot, path);
}

// --- Eager snapshots ---

bool SaveEagerSnapshot(const eager::EagerRecognizer& recognizer, std::ostream& out) {
  return SaveSnapshot(KindName('e'), [](const auto& v, std::ostream& o) {
    return SaveEagerRecognizer(v, o);
  }, recognizer, out);
}

robust::StatusOr<eager::EagerRecognizer> LoadEagerSnapshot(std::istream& in) {
  return LoadSnapshot<eager::EagerRecognizer>(
      KindName('e'), [](std::istream& body) { return LoadEagerRecognizerOr(body); }, in);
}

robust::Status SaveEagerSnapshotFile(const eager::EagerRecognizer& recognizer,
                                     const std::string& path) {
  return SaveSnapshotFile(SaveEagerSnapshot, recognizer, path);
}

robust::StatusOr<eager::EagerRecognizer> LoadEagerSnapshotFile(const std::string& path) {
  return LoadSnapshotFile("eager", LoadEagerSnapshot, path);
}

// --- Bundle snapshots ---

bool SaveBundleSnapshot(const eager::EagerRecognizer& recognizer, std::ostream& out) {
  return SaveSnapshot(KindName('b'), [](const auto& v, std::ostream& o) {
    return SaveClassifier(v.full(), o) && SaveEagerRecognizer(v, o);
  }, recognizer, out);
}

robust::StatusOr<BundleSnapshot> LoadBundleSnapshot(std::istream& in) {
  auto payload = ReadContainer(in, KindName('b'));
  if (!payload.ok()) {
    return payload.status();
  }
  std::istringstream body(*payload);
  auto classifier = LoadClassifierOr(body);
  if (!classifier.ok()) {
    return robust::Status::CorruptSnapshot(
        "snapshot: CRC-valid bundle classifier section failed to parse");
  }
  auto recognizer = LoadEagerRecognizerOr(body);
  if (!recognizer.ok()) {
    return robust::Status::CorruptSnapshot(
        "snapshot: CRC-valid bundle eager section failed to parse");
  }
  if (classifier->num_classes() != recognizer->num_classes()) {
    return robust::Status::CorruptSnapshot(
        "snapshot: bundle sections disagree on class count (" +
        std::to_string(classifier->num_classes()) + " vs " +
        std::to_string(recognizer->num_classes()) + ")");
  }
  return BundleSnapshot{std::move(*classifier), std::move(*recognizer)};
}

robust::Status SaveBundleSnapshotFile(const eager::EagerRecognizer& recognizer,
                                      const std::string& path) {
  return SaveSnapshotFile(SaveBundleSnapshot, recognizer, path);
}

robust::StatusOr<BundleSnapshot> LoadBundleSnapshotFile(const std::string& path) {
  return LoadSnapshotFile("bundle", LoadBundleSnapshot, path);
}

}  // namespace grandma::io
