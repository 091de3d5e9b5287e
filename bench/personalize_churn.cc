// The proof harness of the per-user personalization subsystem (ctest label
// `personalize`):
//
//   Phase 1 — adaptation accuracy: each synthetic user draws with a
//   persistent personal style drift (fixed rotation + scale applied to every
//   gesture). The shared base model suffers on drifted input; after the user
//   demonstrates a few examples per class (ModelRegistry::AdaptUser), their
//   adapted model must recover accuracy. Gate: adapted accuracy strictly
//   above base accuracy on held-out drifted gestures.
//
//   Phase 2 — cache churn: N distinct users (default 100k) stream through a
//   cache bounded to a few hundred entries, forcing mass eviction -> spill ->
//   rehydration traffic. Gates: balanced accounting (lookups == hits +
//   misses, evictions == spills_ok + spills_failed + evictions_dropped),
//   zero failed spills/rehydrations, rehydrated users still serve their
//   adapted (non-base) model, residency within budget.
//
//   Phase 3 — concurrent adapt + classify: strokes flow through a live
//   RecognitionServer while background threads hammer AdaptUser on disjoint
//   users. Every stroke result must be bit-identical to the single-threaded
//   replay through the exact adapted bundle it pinned. Gate: zero
//   divergences.
//
// Writes BENCH_personalize.json and exits nonzero when any gate fails. The
// ctest smoke run shrinks --users; run with defaults for the 100k-user
// numbers quoted in EXPERIMENTS.md.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "features/extractor.h"
#include "geom/transform.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace {

namespace fs = std::filesystem;
namespace serve = grandma::serve;
namespace synth = grandma::synth;
namespace geom = grandma::geom;
namespace features = grandma::features;
using grandma::bench::JsonWriter;

std::shared_ptr<const serve::RecognizerBundle> TrainBase() {
  return serve::RecognizerBundle::Train(synth::ToTrainingSet(synth::GenerateSet(
      synth::MakeGdpSpecs(), synth::NoiseModel{}, /*per_class=*/10, /*seed=*/1991)));
}

// A user's persistent style: every gesture they draw is rotated and scaled
// (about its start point) by user-specific constants. Deterministic in the
// user id, so the drift is reproducible and survives regeneration.
struct UserStyle {
  double radians = 0.0;
  double scale = 1.0;

  static UserStyle For(serve::UserId user) {
    std::mt19937_64 rng(user * 0x9E3779B97F4A7C15ull + 1);
    std::uniform_real_distribution<double> angle(0.50, 0.80);
    std::uniform_real_distribution<double> size(1.50, 2.00);
    UserStyle s;
    s.radians = (user % 2 == 0) ? angle(rng) : -angle(rng);
    s.scale = size(rng);
    return s;
  }

  geom::Gesture Apply(const geom::Gesture& g) const {
    if (g.empty()) {
      return g;
    }
    const geom::TimedPoint& origin = g.points().front();
    const geom::AffineTransform t =
        geom::AffineTransform::Scale(scale, origin.x, origin.y)
            .Compose(geom::AffineTransform::Rotation(radians, origin.x, origin.y));
    return t.Apply(g);
  }
};

// ---------------------------------------------------------------------------
// Phase 1: adapted vs base accuracy on drifted users.

struct AccuracyStats {
  std::uint64_t users = 0;
  std::uint64_t eval_total = 0;
  std::uint64_t base_correct = 0;
  std::uint64_t adapted_correct = 0;

  double base_accuracy() const {
    return eval_total == 0 ? 0.0 : static_cast<double>(base_correct) / eval_total;
  }
  double adapted_accuracy() const {
    return eval_total == 0 ? 0.0 : static_cast<double>(adapted_correct) / eval_total;
  }
};

AccuracyStats RunAccuracy(std::size_t drift_users, std::size_t adapt_per_class,
                          std::size_t eval_per_class) {
  auto base = TrainBase();
  serve::ModelRegistry registry(base);
  serve::PersonalizationOptions popts;
  popts.cache_max_entries = drift_users * 2 + 16;  // everyone stays resident
  registry.EnablePersonalization(popts);

  AccuracyStats stats;
  const auto specs = synth::MakeGdpSpecs();
  for (serve::UserId user = 1; user <= drift_users; ++user) {
    const UserStyle style = UserStyle::For(user);

    // The user demonstrates each class a few times in their own style.
    const auto adapt_set =
        synth::GenerateSet(specs, synth::NoiseModel{}, adapt_per_class,
                           /*seed=*/1000 + user);
    for (std::size_t c = 0; c < adapt_set.size(); ++c) {
      for (const auto& sample : adapt_set[c].samples) {
        const auto status = registry.AdaptUser(
            user, static_cast<grandma::classify::ClassId>(c), style.Apply(sample.gesture));
        if (!status.ok()) {
          std::fprintf(stderr, "AdaptUser failed: %s\n", status.message().c_str());
          return stats;
        }
      }
    }

    // Held-out gestures in the same style, scored by both models.
    const auto adapted = registry.CurrentFor(user);
    const auto eval_set = synth::GenerateSet(specs, synth::NoiseModel{}, eval_per_class,
                                             /*seed=*/500000 + user);
    for (std::size_t c = 0; c < eval_set.size(); ++c) {
      for (const auto& sample : eval_set[c].samples) {
        const geom::Gesture drifted = style.Apply(sample.gesture);
        const grandma::linalg::Vector f = features::ExtractFeatures(drifted);
        stats.eval_total += 1;
        stats.base_correct += base->recognizer().ClassifyFeatures(f).class_id == c;
        stats.adapted_correct += adapted->recognizer().ClassifyFeatures(f).class_id == c;
      }
    }
    stats.users += 1;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Phase 2: N-user churn through a small cache.

struct ChurnStats {
  std::uint64_t users = 0;
  std::uint64_t lookups_issued = 0;       // CurrentFor calls we made
  std::uint64_t rehydrated_served = 0;    // revisits that got a non-base model
  std::uint64_t base_served = 0;          // revisits that fell back to base
  serve::ModelLifecycleMetrics metrics;
};

ChurnStats RunChurn(std::size_t users, std::size_t cache_entries,
                    const std::string& spill_dir) {
  auto base = TrainBase();
  serve::ModelRegistry registry(base);
  serve::PersonalizationOptions popts;
  popts.cache_shards = 8;
  popts.cache_max_entries = cache_entries;
  popts.delta_dir = spill_dir;
  registry.EnablePersonalization(popts);

  // A pool of real feature vectors to cycle through (extraction cost is not
  // what this phase measures).
  std::vector<grandma::linalg::Vector> pool;
  const auto pool_set =
      synth::GenerateSet(synth::MakeGdpSpecs(), synth::NoiseModel{}, 2, /*seed=*/4242);
  for (const auto& batch : pool_set) {
    for (const auto& sample : batch.samples) {
      pool.push_back(features::ExtractFeatures(sample.gesture));
    }
  }
  const std::size_t num_classes = base->num_classes();

  ChurnStats stats;
  for (serve::UserId user = 1; user <= users; ++user) {
    const auto status = registry.AdaptUserFeatures(
        user, static_cast<grandma::classify::ClassId>(user % num_classes),
        pool[user % pool.size()]);
    if (!status.ok()) {
      std::fprintf(stderr, "AdaptUserFeatures(%llu) failed: %s\n",
                   static_cast<unsigned long long>(user), status.message().c_str());
      return stats;
    }
  }
  stats.users = users;

  // Revisit pass: long-evicted users must come back adapted (rehydrated from
  // their spill), never silently as the base model.
  const std::uint64_t base_version = base->version();
  const std::size_t revisit = std::min<std::size_t>(users / 2, 2000);
  for (serve::UserId user = 1; user <= revisit; ++user) {
    const auto model = registry.CurrentFor(user);
    stats.lookups_issued += 1;
    if (model->version() == base_version) {
      stats.base_served += 1;
    } else {
      stats.rehydrated_served += 1;
    }
  }
  // Hit pass: a small working set revisited twice must be served from
  // residency the second time (hits > 0 is a gate; hit_rate is reported).
  const serve::UserId hot_lo = revisit > 64 ? revisit - 63 : 1;
  for (int pass = 0; pass < 2; ++pass) {
    for (serve::UserId user = hot_lo; user <= revisit; ++user) {
      (void)registry.CurrentFor(user);
      stats.lookups_issued += 1;
    }
  }
  stats.metrics = registry.Metrics();
  return stats;
}

// ---------------------------------------------------------------------------
// Phase 3: concurrent adapt + classify, zero divergences.

struct ConcurrencyStats {
  std::uint64_t strokes = 0;
  std::uint64_t results = 0;
  std::uint64_t divergences = 0;
  std::uint64_t background_adapts = 0;
};

ConcurrencyStats RunConcurrency(std::size_t strokes, std::size_t adapter_threads) {
  auto base = TrainBase();
  auto registry = std::make_shared<serve::ModelRegistry>(base);
  serve::PersonalizationOptions popts;
  popts.cache_shards = 8;
  popts.cache_max_entries = 4096;  // large: measured users must stay resident
  registry->EnablePersonalization(popts);

  const auto strokes_set =
      synth::GenerateSet(synth::MakeGdpSpecs(), synth::NoiseModel{}, 4, /*seed=*/77);
  std::vector<synth::GestureSample> pool;
  std::vector<std::size_t> pool_class;
  for (std::size_t c = 0; c < strokes_set.size(); ++c) {
    for (const auto& sample : strokes_set[c].samples) {
      pool.push_back(sample);
      pool_class.push_back(c);
    }
  }

  std::mutex result_mu;
  std::vector<serve::RecognitionResult> results;
  std::atomic<std::size_t> ends_seen{0};
  serve::ServerOptions options;
  options.num_shards = 2;
  serve::RecognitionServer server(registry, options,
                                  [&](const serve::RecognitionResult& r) {
                                    {
                                      std::lock_guard<std::mutex> lock(result_mu);
                                      results.push_back(r);
                                    }
                                    if (r.kind == serve::ResultKind::kStrokeEnd) {
                                      ends_seen.fetch_add(1, std::memory_order_release);
                                    }
                                  });

  // Background adapters: disjoint user ids (>= 10000), so they never touch
  // the models the measured strokes pin — pure concurrent load.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> background_adapts{0};
  std::vector<std::thread> adapters;
  for (std::size_t t = 0; t < adapter_threads; ++t) {
    adapters.emplace_back([&, t] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const serve::UserId user = 10000 + t * 97 + (i % 200);
        const auto& sample = pool[(t + i) % pool.size()];
        (void)registry->AdaptUser(
            user, static_cast<grandma::classify::ClassId>(pool_class[(t + i) % pool.size()]),
            sample.gesture);
        background_adapts.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  // Measured strokes: adapt-then-stroke per user, waiting out each stroke so
  // the pinned bundle is deterministic; per-stroke expected bundle recorded.
  ConcurrencyStats stats;
  constexpr std::size_t kMeasuredUsers = 16;
  std::vector<std::shared_ptr<const serve::RecognizerBundle>> expected(strokes);
  for (std::size_t s = 0; s < strokes; ++s) {
    const serve::UserId user = 1 + (s % kMeasuredUsers);
    const auto& sample = pool[s % pool.size()];
    (void)registry->AdaptUser(
        user, static_cast<grandma::classify::ClassId>(pool_class[s % pool.size()]),
        sample.gesture);
    expected[s] = registry->CurrentFor(user);

    const serve::SessionId session = 100 + user;
    const serve::StrokeId stroke = static_cast<serve::StrokeId>(s);
    const auto& gesture = pool[s % pool.size()].gesture;
    if (!server.Submit({session, serve::EventType::kStrokeBegin, stroke, 0, {}, user}).ok() ||
        !server.Submit({.session = session, .type = serve::EventType::kPoints, .stroke = stroke,
                        .user = user, .points = gesture.points()}).ok() ||
        !server.Submit({session, serve::EventType::kStrokeEnd, stroke, 0, {}, user}).ok()) {
      std::fprintf(stderr, "Submit failed at stroke %zu\n", s);
      break;
    }
    while (ends_seen.load(std::memory_order_acquire) <= s) {
      std::this_thread::yield();
    }
    stats.strokes += 1;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : adapters) {
    t.join();
  }
  server.Shutdown();
  stats.background_adapts = background_adapts.load();

  // Verify: every result replays bit-identically through the exact bundle
  // its stroke pinned.
  for (const auto& r : results) {
    if (r.kind != serve::ResultKind::kStrokeEnd) {
      continue;
    }
    stats.results += 1;
    const auto& model = expected[r.stroke];
    grandma::eager::EagerStream reference(model->recognizer());
    for (const auto& p : pool[r.stroke % pool.size()].gesture) {
      reference.AddPoint(p);
    }
    const auto want = reference.ClassifyNow();
    const bool ok = r.model_version == model->version() &&
                    r.classification.class_id == want.class_id &&
                    r.classification.score == want.score &&
                    r.eager_fired == reference.fired() && r.fired_at == reference.fired_at();
    if (!ok) {
      stats.divergences += 1;
      std::fprintf(stderr, "DIVERGENCE at stroke %u (version %llu vs %llu)\n", r.stroke,
                   static_cast<unsigned long long>(r.model_version),
                   static_cast<unsigned long long>(model->version()));
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------

struct Gate {
  const char* name;
  bool pass;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t users = 100000;
  std::size_t cache_entries = 256;
  std::size_t drift_users = 40;
  std::size_t adapt_per_class = 5;
  std::size_t eval_per_class = 5;
  std::size_t strokes = 200;
  std::size_t adapter_threads = 2;
  std::string out_path = "BENCH_personalize.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--users=", 8) == 0) {
      users = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--cache-entries=", 16) == 0) {
      cache_entries = std::strtoull(argv[i] + 16, nullptr, 10);
    } else if (std::strncmp(argv[i], "--drift-users=", 14) == 0) {
      drift_users = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--adapt-per-class=", 18) == 0) {
      adapt_per_class = std::strtoull(argv[i] + 18, nullptr, 10);
    } else if (std::strncmp(argv[i], "--eval-per-class=", 17) == 0) {
      eval_per_class = std::strtoull(argv[i] + 17, nullptr, 10);
    } else if (std::strncmp(argv[i], "--strokes=", 10) == 0) {
      strokes = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--adapter-threads=", 18) == 0) {
      adapter_threads = std::strtoull(argv[i] + 18, nullptr, 10);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'\n"
                   "usage: personalize_churn [--users=N] [--cache-entries=N]\n"
                   "  [--drift-users=N] [--adapt-per-class=N] [--eval-per-class=N]\n"
                   "  [--strokes=N] [--adapter-threads=N] [--out=PATH]\n",
                   argv[i]);
      return 2;
    }
  }

  std::printf("phase 1: adaptation accuracy (%zu drifted users, %zu/class demos)...\n",
              drift_users, adapt_per_class);
  const AccuracyStats acc = RunAccuracy(drift_users, adapt_per_class, eval_per_class);
  std::printf("  base %.3f -> adapted %.3f over %llu held-out gestures\n",
              acc.base_accuracy(), acc.adapted_accuracy(),
              static_cast<unsigned long long>(acc.eval_total));

  const fs::path spill_dir = fs::temp_directory_path() / "grandma_personalize_churn";
  fs::remove_all(spill_dir);
  fs::create_directories(spill_dir);
  std::printf("phase 2: %zu-user churn through a %zu-entry cache...\n", users,
              cache_entries);
  const ChurnStats churn = RunChurn(users, cache_entries, spill_dir.string());
  const auto& cm = churn.metrics;
  std::printf(
      "  adapts %llu, evictions %llu (spills %llu), rehydrations %llu, hit rate %.3f\n",
      static_cast<unsigned long long>(cm.user_adapts),
      static_cast<unsigned long long>(cm.user_evictions),
      static_cast<unsigned long long>(cm.user_spills_ok),
      static_cast<unsigned long long>(cm.user_rehydrations), cm.UserHitRate());
  fs::remove_all(spill_dir);

  std::printf("phase 3: concurrent adapt + classify (%zu strokes, %zu adapters)...\n",
              strokes, adapter_threads);
  const ConcurrencyStats conc = RunConcurrency(strokes, adapter_threads);
  std::printf("  %llu results, %llu background adapts, %llu divergences\n",
              static_cast<unsigned long long>(conc.results),
              static_cast<unsigned long long>(conc.background_adapts),
              static_cast<unsigned long long>(conc.divergences));

  const Gate gates[] = {
      {"adapted_beats_base", acc.adapted_correct > acc.base_correct},
      {"accuracy_nonvacuous", acc.eval_total > 0 && acc.users == drift_users},
      {"churn_completed", churn.users == users},
      {"lookups_balanced",
       cm.user_cache_hits + cm.user_cache_misses == churn.lookups_issued},
      {"evictions_balanced",
       cm.user_evictions ==
           cm.user_spills_ok + cm.user_spills_failed + cm.user_evictions_dropped},
      {"evictions_happened", cm.user_evictions > 0},
      {"no_failed_spills", cm.user_spills_failed == 0},
      {"no_dropped_evictions", cm.user_evictions_dropped == 0},
      {"rehydrations_happened", cm.user_rehydrations > 0},
      {"no_failed_rehydrations", cm.user_rehydrate_failed == 0},
      {"rehydrations_bounded_by_spills", cm.user_rehydrations <= cm.user_spills_ok},
      {"revisits_served_adapted", churn.base_served == 0},
      {"cache_hits_happened", cm.user_cache_hits > 0},
      {"residency_within_budget", cm.user_models_resident <= cache_entries},
      {"zero_divergences", conc.divergences == 0 && conc.results == conc.strokes},
      {"concurrency_nonvacuous", conc.results > 0 && conc.background_adapts > 0},
  };
  bool all_pass = true;
  for (const Gate& g : gates) {
    if (!g.pass) {
      all_pass = false;
      std::fprintf(stderr, "GATE FAILED: %s\n", g.name);
    }
  }

  std::ofstream out(out_path, std::ios::trunc);
  JsonWriter json(out);
  json.BeginObject();
  json.Key("config").BeginObject();
  json.KV("users", static_cast<std::uint64_t>(users));
  json.KV("cache_entries", static_cast<std::uint64_t>(cache_entries));
  json.KV("drift_users", static_cast<std::uint64_t>(drift_users));
  json.KV("adapt_per_class", static_cast<std::uint64_t>(adapt_per_class));
  json.KV("eval_per_class", static_cast<std::uint64_t>(eval_per_class));
  json.KV("strokes", static_cast<std::uint64_t>(strokes));
  json.KV("adapter_threads", static_cast<std::uint64_t>(adapter_threads));
  json.EndObject();
  json.Key("accuracy").BeginObject();
  json.KV("users", acc.users);
  json.KV("eval_total", acc.eval_total);
  json.KV("base_accuracy", acc.base_accuracy());
  json.KV("adapted_accuracy", acc.adapted_accuracy());
  json.KV("base_correct", acc.base_correct);
  json.KV("adapted_correct", acc.adapted_correct);
  json.EndObject();
  json.Key("churn").BeginObject();
  json.KV("users", churn.users);
  json.KV("lookups_issued", churn.lookups_issued);
  json.KV("rehydrated_served", churn.rehydrated_served);
  json.KV("base_served", churn.base_served);
  json.Key("lifecycle").Raw(cm.ToJson());
  json.EndObject();
  json.Key("concurrency").BeginObject();
  json.KV("strokes", conc.strokes);
  json.KV("results", conc.results);
  json.KV("divergences", conc.divergences);
  json.KV("background_adapts", conc.background_adapts);
  json.EndObject();
  json.Key("gates").BeginObject();
  for (const Gate& g : gates) {
    json.KV(g.name, g.pass);
  }
  json.EndObject();
  json.KV("pass", all_pass);
  json.EndObject();

  std::printf("%s -> %s\n", all_pass ? "PASS" : "FAIL", out_path.c_str());
  return all_pass ? 0 : 1;
}
