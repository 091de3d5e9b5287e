// gesture_trainer: the train-and-deploy workflow as a command-line tool,
// mirroring how GRANDMA applications separated example collection from
// recognition.
//
//   gesture_trainer generate <set> <per-class> <seed> <out.gestureset>
//       synthesize labeled examples (set: ud | udr | dirs8 | notes | gdp)
//   gesture_trainer train <in.gestureset> <out.recognizer>
//       train a full + eager recognizer and save it
//   gesture_trainer evaluate <recognizer> <test.gestureset>
//       classification report on a labeled test set
//   gesture_trainer info <file>
//       describe a gesture set or recognizer file
//
// Running with no arguments executes a demo of all four.
#include <cstdio>
#include <cstring>
#include <string>

#include "classify/evaluation.h"
#include "eager/eager_recognizer.h"
#include "io/serialize.h"
#include "synth/generator.h"
#include "synth/sets.h"

using namespace grandma;

namespace {

std::vector<synth::PathSpec> SpecsByName(const std::string& name) {
  if (name == "ud") {
    return synth::MakeUpDownSpecs();
  }
  if (name == "udr") {
    return synth::MakeUpDownRightSpecs();
  }
  if (name == "dirs8") {
    return synth::MakeEightDirectionSpecs();
  }
  if (name == "notes") {
    return synth::MakeNoteSpecs();
  }
  if (name == "gdp") {
    return synth::MakeGdpSpecs();
  }
  std::fprintf(stderr, "unknown gesture set '%s'\n", name.c_str());
  std::exit(1);
}

int CmdGenerate(const std::string& set_name, std::size_t per_class, std::uint64_t seed,
                const std::string& out_path) {
  synth::NoiseModel noise;
  const auto training =
      synth::ToTrainingSet(synth::GenerateSet(SpecsByName(set_name), noise, per_class, seed));
  if (!io::SaveGestureSetFile(training, out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu classes, %zu examples\n", out_path.c_str(),
              training.num_classes(), training.total_examples());
  return 0;
}

int CmdTrain(const std::string& in_path, const std::string& out_path) {
  const auto training = io::LoadGestureSetFileOr(in_path);
  if (!training.ok()) {
    std::fprintf(stderr, "cannot read gesture set %s: %s\n", in_path.c_str(),
                 training.status().ToString().c_str());
    return 1;
  }
  eager::EagerRecognizer recognizer;
  const eager::EagerTrainReport report = recognizer.Train(*training);
  if (!io::SaveEagerRecognizerFile(recognizer, out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("trained on %zu classes (%zu examples): %zu complete / %zu incomplete "
              "subgestures, %zu moved; AUC tweak %zu passes; wrote %s\n",
              training->num_classes(), training->total_examples(),
              report.complete_before_move, report.incomplete_before_move, report.mover.moved,
              report.auc.tweak_passes, out_path.c_str());
  return 0;
}

int CmdEvaluate(const std::string& recognizer_path, const std::string& test_path) {
  const auto recognizer = io::LoadEagerRecognizerFileOr(recognizer_path);
  if (!recognizer.ok()) {
    std::fprintf(stderr, "cannot read recognizer %s: %s\n", recognizer_path.c_str(),
                 recognizer.status().ToString().c_str());
    return 1;
  }
  const auto test = io::LoadGestureSetFileOr(test_path);
  if (!test.ok()) {
    std::fprintf(stderr, "cannot read gesture set %s: %s\n", test_path.c_str(),
                 test.status().ToString().c_str());
    return 1;
  }
  classify::ConfusionMatrix cm(recognizer->num_classes());
  for (classify::ClassId c = 0; c < test->num_classes(); ++c) {
    const classify::ClassId mapped =
        recognizer->full().registry().Require(test->ClassName(c));
    for (const geom::Gesture& g : test->ExamplesOf(c)) {
      cm.Record(mapped, recognizer->full().Classify(g).class_id);
    }
  }
  std::printf("%s", cm.ToString(recognizer->full().registry()).c_str());
  return 0;
}

int CmdInfo(const std::string& path) {
  if (const auto set = io::LoadGestureSetFileOr(path); set.ok()) {
    std::printf("%s: gesture set, %zu classes, %zu examples\n", path.c_str(),
                set->num_classes(), set->total_examples());
    for (classify::ClassId c = 0; c < set->num_classes(); ++c) {
      std::printf("  %-16s %zu examples\n", set->ClassName(c).c_str(),
                  set->ExamplesOf(c).size());
    }
    return 0;
  }
  if (const auto recognizer = io::LoadEagerRecognizerFileOr(path); recognizer.ok()) {
    std::printf("%s: eager recognizer, %zu classes, %zu features, AUC sets: %zu\n",
                path.c_str(), recognizer->num_classes(),
                recognizer->full().linear().dimension(), recognizer->auc().num_sets());
    return 0;
  }
  std::fprintf(stderr, "%s: not a gesture set or recognizer\n", path.c_str());
  return 1;
}

int RunDemo() {
  std::printf("== demo: generate -> train -> evaluate ==\n");
  int rc = CmdGenerate("dirs8", 10, 1991, "/tmp/demo_train.gestureset");
  rc = rc ? rc : CmdGenerate("dirs8", 15, 42, "/tmp/demo_test.gestureset");
  rc = rc ? rc : CmdTrain("/tmp/demo_train.gestureset", "/tmp/demo.recognizer");
  rc = rc ? rc : CmdInfo("/tmp/demo.recognizer");
  rc = rc ? rc : CmdEvaluate("/tmp/demo.recognizer", "/tmp/demo_test.gestureset");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return RunDemo();
  }
  const std::string command = argv[1];
  if (command == "generate" && argc == 6) {
    return CmdGenerate(argv[2], std::stoul(argv[3]), std::stoull(argv[4]), argv[5]);
  }
  if (command == "train" && argc == 4) {
    return CmdTrain(argv[2], argv[3]);
  }
  if (command == "evaluate" && argc == 4) {
    return CmdEvaluate(argv[2], argv[3]);
  }
  if (command == "info" && argc == 3) {
    return CmdInfo(argv[2]);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  gesture_trainer generate <ud|udr|dirs8|notes|gdp> <per-class> <seed> <out>\n"
               "  gesture_trainer train <in.gestureset> <out.recognizer>\n"
               "  gesture_trainer evaluate <recognizer> <test.gestureset>\n"
               "  gesture_trainer info <file>\n");
  return 2;
}
