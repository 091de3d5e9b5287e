// Quickstart: train a statistical single-stroke recognizer from example
// gestures, classify new strokes, then upgrade to an *eager* recognizer that
// answers mid-stroke. This is the smallest end-to-end use of the library.
#include <cstdio>

#include "classify/gesture_classifier.h"
#include "eager/eager_recognizer.h"
#include "geom/gesture.h"
#include "io/serialize.h"

using namespace grandma;

// Build a crude stroke by hand: `n` points from (x0,y0) to (x1,y1).
static void AppendSegment(geom::Gesture& g, double x0, double y0, double x1, double y1, int n,
                          double* t) {
  for (int i = 1; i <= n; ++i) {
    const double u = static_cast<double>(i) / n;
    *t += 15.0;
    g.AppendPoint({x0 + (x1 - x0) * u, y0 + (y1 - y0) * u, *t});
  }
}

static geom::Gesture MakeCheckmark(double size) {
  geom::Gesture g;
  double t = 0.0;
  g.AppendPoint({0, 0, 0});
  AppendSegment(g, 0, 0, size, -size, 6, &t);
  AppendSegment(g, size, -size, 3 * size, size, 10, &t);
  return g;
}

static geom::Gesture MakeSlash(double size) {
  geom::Gesture g;
  double t = 0.0;
  g.AppendPoint({0, 0, 0});
  AppendSegment(g, 0, 0, 2 * size, 2 * size, 12, &t);
  return g;
}

static geom::Gesture MakeCaret(double size) {
  geom::Gesture g;
  double t = 0.0;
  g.AppendPoint({0, 0, 0});
  AppendSegment(g, 0, 0, size, 1.5 * size, 7, &t);
  AppendSegment(g, size, 1.5 * size, 2 * size, 0, 7, &t);
  return g;
}

int main() {
  // 1. Collect labeled examples (here: three classes at several sizes —
  //    real applications record them from the user's mouse).
  classify::GestureTrainingSet training;
  for (double size : {18.0, 22.0, 25.0, 28.0, 32.0, 38.0}) {
    training.Add("check", MakeCheckmark(size));
    training.Add("slash", MakeSlash(size));
    training.Add("caret", MakeCaret(size));
  }

  // 2. Train the full (whole-gesture) classifier. Training is closed-form:
  //    per-class means + pooled covariance -> linear evaluation functions.
  classify::GestureClassifier classifier;
  classifier.Train(training);
  std::printf("trained %zu classes from %zu examples\n", classifier.num_classes(),
              training.total_examples());

  // 3. Classify an unseen stroke.
  const geom::Gesture probe = MakeCheckmark(27.0);
  const classify::Classification result = classifier.Classify(probe);
  std::printf("probe classified as '%s' (P(correct) ~= %.3f)\n",
              classifier.ClassName(result.class_id).c_str(), result.probability);

  // 4. Upgrade to eager recognition: D(g[i]) answers, per point, whether
  //    enough of the stroke has been seen to classify it unambiguously.
  eager::EagerRecognizer eager_recognizer;
  eager_recognizer.Train(training);
  eager::EagerStream stream(eager_recognizer);
  std::size_t fired_at = 0;
  for (const geom::TimedPoint& p : MakeCheckmark(24.0)) {
    if (stream.AddPoint(p)) {
      fired_at = stream.fired_at();
    }
  }
  if (stream.fired()) {
    std::printf("eager recognizer fired after %zu of %zu points: '%s'\n", fired_at,
                stream.points_seen(),
                eager_recognizer.ClassName(stream.ClassifyNow().class_id).c_str());
  } else {
    std::printf("eager recognizer waited for the whole stroke\n");
  }

  // 5. Persist the trained recognizer and reload it.
  const char* path = "/tmp/quickstart.recognizer";
  io::SaveEagerRecognizerFile(eager_recognizer, path);
  const auto loaded = io::LoadEagerRecognizerFileOr(path);
  std::printf("saved + reloaded recognizer: %s\n",
              loaded.ok() && loaded->trained() ? "ok" : loaded.status().ToString().c_str());
  return 0;
}
