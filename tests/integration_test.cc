// The full workflow a downstream application would run, end to end:
// synthesize training data -> persist the gesture set -> reload -> train an
// eager recognizer -> persist it -> reload -> wire it into a GRANDMA gesture
// handler -> drive interactions through the dispatcher -> observe semantics.
#include <gtest/gtest.h>

#include <sstream>

#include "eager/evaluation.h"
#include "gdp/session.h"
#include "io/serialize.h"
#include "synth/generator.h"
#include "synth/sets.h"
#include "toolkit/dispatcher.h"
#include "toolkit/gesture_handler.h"
#include "toolkit/playback.h"

namespace grandma {
namespace {

TEST(IntegrationTest, FullPipelineFromSynthesisToInteraction) {
  // 1. Synthesize and persist a training set.
  synth::NoiseModel noise;
  const auto specs = synth::MakeEightDirectionSpecs();
  classify::GestureTrainingSet original =
      synth::ToTrainingSet(synth::GenerateSet(specs, noise, 10, 1991));
  std::stringstream set_buffer;
  ASSERT_TRUE(io::SaveGestureSet(original, set_buffer));

  // 2. Reload and train.
  auto reloaded_set = io::LoadGestureSetOr(set_buffer);
  ASSERT_TRUE(reloaded_set.ok()) << reloaded_set.status().ToString();
  eager::EagerRecognizer trained;
  trained.Train(*reloaded_set);

  // 3. Persist and reload the trained recognizer.
  std::stringstream recognizer_buffer;
  ASSERT_TRUE(io::SaveEagerRecognizer(trained, recognizer_buffer));
  auto recognizer = io::LoadEagerRecognizerOr(recognizer_buffer);
  ASSERT_TRUE(recognizer.ok()) << recognizer.status().ToString();

  // 4. The reloaded recognizer performs on fresh test data.
  const auto test = synth::GenerateSet(specs, noise, 10, 77);
  const eager::EagerEvaluation eval = eager::EvaluateEager(*recognizer, test);
  EXPECT_GE(eval.FullAccuracy(), 0.95);
  EXPECT_GE(eval.EagerAccuracy(), 0.9);

  // 5. Wire it into a gesture handler and run a live interaction with an
  //    eager transition followed by manipulation.
  toolkit::ViewClass window_class("Window");
  toolkit::View window(&window_class, "main");
  window.SetBounds({-1000, -1000, 2000, 2000});
  toolkit::VirtualClock clock;
  toolkit::Dispatcher dispatcher(&window, &clock);
  toolkit::PlaybackDriver driver(&dispatcher);

  toolkit::GestureHandler::Config config;
  config.enable_eager = true;
  auto handler =
      std::make_shared<toolkit::GestureHandler>("g", &*recognizer, config);
  window_class.AddHandler(handler);

  int recog_calls = 0;
  int manip_calls = 0;
  for (const auto& spec : specs) {
    toolkit::GestureSemantics semantics;
    semantics.recog = [&recog_calls](toolkit::SemanticContext&) -> std::any {
      ++recog_calls;
      return std::any();
    };
    semantics.manip = [&manip_calls](toolkit::SemanticContext&) { ++manip_calls; };
    handler->semantics().Set(spec.class_name, std::move(semantics));
  }

  driver.PlayStroke(gdp::MakeStrokeAt(specs[0], 0, 0, /*seed=*/5));
  EXPECT_EQ(handler->recognized_class(), specs[0].class_name);
  EXPECT_EQ(handler->last_transition(), toolkit::GestureHandler::Transition::kEager);
  EXPECT_EQ(recog_calls, 1);
  EXPECT_GT(manip_calls, 0);  // post-fire points became manipulation
}

TEST(IntegrationTest, EagerEvaluationMetricsAreInternallyConsistent) {
  synth::NoiseModel noise;
  const auto specs = synth::MakeUpDownSpecs();
  eager::EagerRecognizer recognizer;
  recognizer.Train(synth::ToTrainingSet(synth::GenerateSet(specs, noise, 10, 1991)));
  const auto test = synth::GenerateSet(specs, noise, 20, 3);
  const eager::EagerEvaluation eval = eager::EvaluateEager(recognizer, test);

  ASSERT_EQ(eval.total, eval.outcomes.size());
  std::size_t eager_correct = 0;
  std::size_t full_correct = 0;
  std::size_t never_fired = 0;
  for (const auto& o : eval.outcomes) {
    eager_correct += o.eager_correct ? 1 : 0;
    full_correct += o.full_correct ? 1 : 0;
    never_fired += o.fired ? 0 : 1;
    EXPECT_LE(o.points_seen, o.points_total);
    EXPECT_GE(o.min_points, 1u);
    if (!o.fired) {
      // Never fired: eager result equals the full result by construction.
      EXPECT_EQ(o.eager_class, o.full_class);
      EXPECT_EQ(o.points_seen, o.points_total);
    }
  }
  EXPECT_EQ(eager_correct, eval.eager_correct);
  EXPECT_EQ(full_correct, eval.full_correct);
  EXPECT_EQ(never_fired, eval.never_fired);
  EXPECT_NEAR(eval.EagerAccuracy(),
              static_cast<double>(eager_correct) / static_cast<double>(eval.total), 1e-12);
}

TEST(IntegrationTest, ExampleNamesFollowFigureConvention) {
  synth::NoiseModel noise;
  const auto specs = synth::MakeUpDownSpecs();
  eager::EagerRecognizer recognizer;
  recognizer.Train(synth::ToTrainingSet(synth::GenerateSet(specs, noise, 10, 1)));
  const auto test = synth::GenerateSet(specs, noise, 3, 2);
  const eager::EagerEvaluation eval = eager::EvaluateEager(recognizer, test);
  // "U1", "U2", ..., "D1", ... mirroring the paper's "ru4" naming.
  ASSERT_GE(eval.outcomes.size(), 4u);
  EXPECT_EQ(eval.outcomes[0].example_name, "U1");
  EXPECT_EQ(eval.outcomes[3].example_name, "D1");
}

}  // namespace
}  // namespace grandma
