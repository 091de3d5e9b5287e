// Plain-text persistence for gesture sets and trained recognizers, so
// training sessions (example collection) and deployment (classification) can
// be separate programs — as they were for GRANDMA's applications.
//
// Formats are line-oriented, versioned, and locale-independent (numbers are
// written with max round-trip precision).
//
// The ...Or loaders return robust::StatusOr with a precise failure reason —
// kTruncated (stream ended mid-parse), kVersionMismatch (right file family,
// unknown format version), kCorruptSnapshot (wrong family or malformed
// contents), kFailedPrecondition (file loaders only: the file cannot be
// opened). All file savers write atomically (io/atomic_file.h): temp
// sibling + rename, so a crash mid-save never tears the destination.
#ifndef GRANDMA_SRC_IO_SERIALIZE_H_
#define GRANDMA_SRC_IO_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "classify/gesture_classifier.h"
#include "classify/training_set.h"
#include "eager/eager_recognizer.h"
#include "robust/status.h"

namespace grandma::io {

// --- Gesture training sets ---

// Writes `set` as text. Returns false on stream failure.
bool SaveGestureSet(const classify::GestureTrainingSet& set, std::ostream& out);
bool SaveGestureSetFile(const classify::GestureTrainingSet& set, const std::string& path);

robust::StatusOr<classify::GestureTrainingSet> LoadGestureSetOr(std::istream& in);
robust::StatusOr<classify::GestureTrainingSet> LoadGestureSetFileOr(const std::string& path);

// --- Trained full classifiers ---

bool SaveClassifier(const classify::GestureClassifier& classifier, std::ostream& out);
bool SaveClassifierFile(const classify::GestureClassifier& classifier, const std::string& path);

robust::StatusOr<classify::GestureClassifier> LoadClassifierOr(std::istream& in);
robust::StatusOr<classify::GestureClassifier> LoadClassifierFileOr(const std::string& path);

// --- Trained eager recognizers (full classifier + AUC) ---

bool SaveEagerRecognizer(const eager::EagerRecognizer& recognizer, std::ostream& out);
bool SaveEagerRecognizerFile(const eager::EagerRecognizer& recognizer, const std::string& path);

robust::StatusOr<eager::EagerRecognizer> LoadEagerRecognizerOr(std::istream& in);
robust::StatusOr<eager::EagerRecognizer> LoadEagerRecognizerFileOr(const std::string& path);

}  // namespace grandma::io

#endif  // GRANDMA_SRC_IO_SERIALIZE_H_
