// The chaos harness of the crash-safe model lifecycle (docs/ROBUSTNESS.md):
//
//   Phase 1 — crash-kill sweep: a snapshot overwrite is killed at EVERY byte
//   boundary (robust::CrashPoint), plus just before and just after the
//   atomic rename. After each kill the destination must hold a byte-exact
//   complete snapshot (old model, or new model once the rename happened) and
//   a registry load must recover a working model. Gates: zero atomicity
//   violations, zero failed recoveries.
//
//   Phase 2 — corruption corpus: 100+ seeded mutations of a good snapshot
//   (bit flips, truncations, CRC-field edits). Every one must be REJECTED
//   with a typed status and must leave the registry serving its last good
//   model. Gate: zero corrupted loads accepted.
//
//   Phase 3 — hot swap under traffic: a live RecognitionServer takes >= 20
//   model swaps while strokes flow; every result must be bit-identical to
//   the single-threaded reference of the exact model version it reports.
//   Gate: zero divergences.
//
// Writes BENCH_chaos.json (including the lifecycle-accounting balance) and
// exits nonzero when any gate fails. --stride=N samples every Nth byte
// boundary in phase 1 (the ctest smoke run uses a coarse stride; run with
// the default --stride=1 for the full sweep).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "io/atomic_file.h"
#include "io/snapshot.h"
#include "robust/crash_point.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace {

using grandma::bench::JsonWriter;
namespace io = grandma::io;
namespace robust = grandma::robust;
namespace serve = grandma::serve;
namespace synth = grandma::synth;

constexpr const char* kSnapshotPath = "/tmp/grandma_chaos_model.snap";
constexpr const char* kCorruptPath = "/tmp/grandma_chaos_corrupt.snap";

grandma::eager::EagerRecognizer TrainModel(std::uint64_t seed) {
  grandma::eager::EagerRecognizer r;
  r.Train(synth::ToTrainingSet(synth::GenerateSet(synth::MakeUpDownSpecs(),
                                                  synth::NoiseModel{},
                                                  /*per_class=*/8, seed)));
  return r;
}

std::string Serialized(const grandma::eager::EagerRecognizer& model) {
  std::ostringstream buf;
  io::SaveBundleSnapshot(model, buf);
  return buf.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct CrashSweepStats {
  std::uint64_t boundaries_tested = 0;
  std::uint64_t crashes_fired = 0;
  std::uint64_t recoveries_ok = 0;
  std::uint64_t old_model_survived = 0;
  std::uint64_t new_model_landed = 0;
  std::uint64_t atomicity_violations = 0;
  std::uint64_t temp_byte_mismatches = 0;
  std::uint64_t corrupted_loads_accepted = 0;
};

// Kills the overwrite of `path` (old model bytes in place) at one boundary
// and checks the recovery invariants.
void KillAndRecover(const grandma::eager::EagerRecognizer& next_model,
                    const std::string& old_bytes, const std::string& new_bytes,
                    serve::ModelRegistry& registry, CrashSweepStats& stats) {
  bool crashed = false;
  try {
    (void)io::SaveBundleSnapshotFile(next_model, kSnapshotPath);
  } catch (const robust::CrashPointTriggered&) {
    crashed = true;
  }
  const std::uint64_t bytes_at_death = robust::CrashPoint::bytes_written();
  robust::CrashPoint::Disarm();
  ++stats.boundaries_tested;
  if (crashed) {
    ++stats.crashes_fired;
  }

  // Atomicity: the destination is byte-exactly the old or the new snapshot,
  // never a mixture or a prefix.
  const std::string on_disk = ReadFile(kSnapshotPath);
  if (on_disk == old_bytes) {
    ++stats.old_model_survived;
  } else if (on_disk == new_bytes) {
    ++stats.new_model_landed;
  } else {
    ++stats.atomicity_violations;
    std::fprintf(stderr, "ATOMICITY VIOLATION: destination holds %zu bytes\n",
                 on_disk.size());
  }

  // Byte-exact kill: when the crash hit before the rename, the stranded temp
  // holds exactly the prefix the budget allowed (after the rename the temp
  // has already become the destination).
  if (crashed && on_disk == old_bytes) {
    const std::string temp = ReadFile(io::AtomicTempPath(kSnapshotPath));
    if (temp.size() != bytes_at_death ||
        std::memcmp(temp.data(), new_bytes.data(), temp.size()) != 0) {
      ++stats.temp_byte_mismatches;
      std::fprintf(stderr, "TEMP MISMATCH: %zu bytes stranded, %llu allowed\n",
                   temp.size(),
                   static_cast<unsigned long long>(bytes_at_death));
    }
  }

  // Recovery: the registry must come back with a complete model.
  const auto status = registry.LoadFromFile(kSnapshotPath);
  if (status.ok()) {
    ++stats.recoveries_ok;
  } else {
    std::fprintf(stderr, "RECOVERY FAILED: %s\n", status.ToString().c_str());
  }
  if (status.ok() && on_disk != old_bytes && on_disk != new_bytes) {
    ++stats.corrupted_loads_accepted;
  }
}

CrashSweepStats RunCrashSweep(std::uint64_t stride) {
  const auto old_model = TrainModel(1);
  const auto new_model = TrainModel(2);
  const std::string old_bytes = Serialized(old_model);
  const std::string new_bytes = Serialized(new_model);

  CrashSweepStats stats;
  auto registry = serve::ModelRegistry(
      serve::RecognizerBundle::FromRecognizer(TrainModel(1)));

  for (std::uint64_t k = 0; k < new_bytes.size(); k += stride) {
    // Reset the destination to the old good snapshot, then kill the
    // overwrite after exactly k bytes.
    if (!io::SaveBundleSnapshotFile(old_model, kSnapshotPath).ok()) {
      std::fprintf(stderr, "setup save failed\n");
      std::exit(2);
    }
    robust::CrashPoint::ArmAfterBytes(k);
    KillAndRecover(new_model, old_bytes, new_bytes, registry, stats);
  }

  // The two rename-adjacent kills: all bytes written, death around rename(2).
  for (const char* site : {io::kCrashBeforeRename, io::kCrashAfterRename}) {
    if (!io::SaveBundleSnapshotFile(old_model, kSnapshotPath).ok()) {
      std::fprintf(stderr, "setup save failed\n");
      std::exit(2);
    }
    robust::CrashPoint::ArmAtSite(site);
    KillAndRecover(new_model, old_bytes, new_bytes, registry, stats);
  }
  return stats;
}

struct CorpusStats {
  std::uint64_t mutations = 0;
  std::uint64_t rejected = 0;
  std::uint64_t accepted = 0;
  std::uint64_t registry_disturbed = 0;
  std::map<std::string, std::uint64_t> by_code;
};

CorpusStats RunCorruptionCorpus(int rounds) {
  const auto model = TrainModel(3);
  if (!io::SaveBundleSnapshotFile(model, kSnapshotPath).ok()) {
    std::fprintf(stderr, "setup save failed\n");
    std::exit(2);
  }
  const std::string good = ReadFile(kSnapshotPath);

  serve::ModelRegistry registry(
      serve::RecognizerBundle::FromRecognizer(TrainModel(1)));
  if (!registry.LoadFromFile(kSnapshotPath).ok()) {
    std::fprintf(stderr, "setup load failed\n");
    std::exit(2);
  }
  const std::uint64_t good_version = registry.current_version();

  CorpusStats stats;
  std::uint64_t rng = 0x243F6A8885A308D3ull;  // deterministic xorshift
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  for (int round = 0; round < rounds; ++round) {
    std::string bad = good;
    switch (round % 3) {
      case 0: {  // bit flips (guaranteed to change the byte)
        const std::size_t flips = 1 + next() % 4;
        for (std::size_t f = 0; f < flips; ++f) {
          bad[next() % bad.size()] ^= static_cast<char>(1 + next() % 255);
        }
        break;
      }
      case 1:  // truncation at a strictly shorter prefix
        bad.resize(next() % bad.size());
        break;
      case 2: {  // CRC-field edit: one hex digit cycled to a different one
        const auto pos = bad.find("crc32 ");
        const std::size_t digit = pos + 6 + next() % 8;
        bad[digit] = bad[digit] == '0' ? '1' : '0';
        break;
      }
    }
    {
      std::ofstream out(kCorruptPath, std::ios::binary | std::ios::trunc);
      out << bad;
    }
    ++stats.mutations;
    const auto status = registry.LoadFromFile(kCorruptPath);
    if (status.ok()) {
      ++stats.accepted;
      std::fprintf(stderr, "CORRUPT SNAPSHOT ACCEPTED (round %d)\n", round);
    } else {
      ++stats.rejected;
      ++stats.by_code[robust::StatusCodeName(status.code())];
    }
    if (registry.current_version() != good_version ||
        registry.last_good_path() != kSnapshotPath) {
      ++stats.registry_disturbed;
      std::fprintf(stderr, "REGISTRY DISTURBED by rejected load (round %d)\n", round);
    }
  }
  return stats;
}

struct HotSwapStats {
  std::uint64_t strokes = 0;
  std::uint64_t swaps = 0;
  std::uint64_t results = 0;
  std::uint64_t divergences = 0;
  std::uint64_t versions_seen = 0;
};

HotSwapStats RunHotSwapTraffic(std::size_t per_class) {
  std::vector<std::shared_ptr<const serve::RecognizerBundle>> models;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    models.push_back(serve::RecognizerBundle::FromRecognizer(TrainModel(seed)));
  }
  auto registry = std::make_shared<serve::ModelRegistry>(models[0]);

  std::mutex mu;
  std::vector<serve::RecognitionResult> results;
  std::atomic<std::size_t> ends_seen{0};
  serve::ServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 4096;
  options.overload = serve::OverloadPolicy::kBlock;
  serve::RecognitionServer server(
      registry, options, [&](const serve::RecognitionResult& r) {
        {
          std::lock_guard<std::mutex> lock(mu);
          results.push_back(r);
        }
        if (r.kind == serve::ResultKind::kStrokeEnd) {
          ends_seen.fetch_add(1, std::memory_order_release);
        }
      });

  std::vector<synth::GestureSample> strokes;
  for (auto& batch : synth::GenerateSet(synth::MakeUpDownSpecs(),
                                        synth::NoiseModel{}, per_class, 11)) {
    for (auto& sample : batch.samples) {
      strokes.push_back(std::move(sample));
    }
  }

  HotSwapStats stats;
  stats.strokes = strokes.size();
  for (std::size_t s = 0; s < strokes.size(); ++s) {
    registry->Swap(models[s % models.size()]);
    const serve::SessionId session = 1000 + (s % 8);
    const auto stroke = static_cast<serve::StrokeId>(s);
    (void)server.Submit({session, serve::EventType::kStrokeBegin, stroke});
    (void)server.Submit(
        {.session = session, .type = serve::EventType::kPoints, .stroke = stroke,
         .points = strokes[s].gesture.points()});
    (void)server.Submit({session, serve::EventType::kStrokeEnd, stroke});
    while (ends_seen.load(std::memory_order_acquire) <= s) {
      std::this_thread::yield();
    }
  }
  server.Shutdown();
  stats.swaps = registry->Metrics().model_swaps;

  std::set<std::uint64_t> versions;
  for (const auto& r : results) {
    if (r.kind != serve::ResultKind::kStrokeEnd) {
      continue;
    }
    ++stats.results;
    versions.insert(r.model_version);
    const serve::RecognizerBundle* model = nullptr;
    for (const auto& m : models) {
      if (m->version() == r.model_version) {
        model = m.get();
      }
    }
    if (model == nullptr) {
      ++stats.divergences;
      continue;
    }
    grandma::eager::EagerStream reference(model->recognizer());
    for (const auto& p : strokes[r.stroke].gesture) {
      reference.AddPoint(p);
    }
    const auto expected = reference.ClassifyNow();
    if (r.classification.class_id != expected.class_id ||
        r.classification.score != expected.score ||
        r.eager_fired != reference.fired() || r.fired_at != reference.fired_at()) {
      ++stats.divergences;
      std::fprintf(stderr, "DIVERGENCE on stroke %u (model v%llu)\n", r.stroke,
                   static_cast<unsigned long long>(r.model_version));
    }
  }
  stats.versions_seen = versions.size();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t stride = 1;
  int corpus_rounds = 100;
  std::size_t per_class = 15;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--stride=", 9) == 0) {
      stride = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--corpus=", 9) == 0) {
      corpus_rounds = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--per-class=", 12) == 0) {
      per_class = std::strtoull(argv[i] + 12, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'\n"
                   "usage: chaos_recovery [--stride=N] [--corpus=N] [--per-class=N]\n",
                   argv[i]);
      return 2;
    }
  }
  if (stride == 0) {
    stride = 1;
  }

  std::printf("phase 1: crash-kill sweep (stride %llu)...\n",
              static_cast<unsigned long long>(stride));
  const CrashSweepStats sweep = RunCrashSweep(stride);
  std::printf("  %llu boundaries, %llu kills, %llu recoveries, %llu violations\n",
              static_cast<unsigned long long>(sweep.boundaries_tested),
              static_cast<unsigned long long>(sweep.crashes_fired),
              static_cast<unsigned long long>(sweep.recoveries_ok),
              static_cast<unsigned long long>(sweep.atomicity_violations));

  std::printf("phase 2: corruption corpus (%d mutations)...\n", corpus_rounds);
  const CorpusStats corpus = RunCorruptionCorpus(corpus_rounds);
  std::printf("  %llu rejected, %llu accepted\n",
              static_cast<unsigned long long>(corpus.rejected),
              static_cast<unsigned long long>(corpus.accepted));

  std::printf("phase 3: hot swap under traffic...\n");
  const HotSwapStats swap = RunHotSwapTraffic(per_class);
  std::printf("  %llu strokes, %llu swaps, %llu divergences\n",
              static_cast<unsigned long long>(swap.strokes),
              static_cast<unsigned long long>(swap.swaps),
              static_cast<unsigned long long>(swap.divergences));

  // Accounting balance over one registry driven through both failure modes.
  serve::ModelRegistry accounting(
      serve::RecognizerBundle::FromRecognizer(TrainModel(1)));
  (void)io::SaveBundleSnapshotFile(TrainModel(2), kSnapshotPath);
  std::uint64_t attempts = 0;
  for (int i = 0; i < 5; ++i, ++attempts) {
    (void)accounting.LoadFromFile(kSnapshotPath);
  }
  for (int i = 0; i < 3; ++i, ++attempts) {
    (void)accounting.LoadFromFile("/nonexistent-dir/x");
  }
  const auto acct = accounting.Metrics();
  const bool balanced = acct.snapshot_loads_ok + acct.snapshot_loads_failed == attempts &&
                        acct.rollbacks == acct.snapshot_loads_failed &&
                        acct.model_swaps == acct.snapshot_loads_ok;

  {
    std::ofstream file("BENCH_chaos.json");
    JsonWriter json(file);
    json.BeginObject();
    json.Key("crash_sweep").BeginObject();
    json.Key("stride").Value(stride);
    json.Key("boundaries_tested").Value(sweep.boundaries_tested);
    json.Key("crashes_fired").Value(sweep.crashes_fired);
    json.Key("recoveries_ok").Value(sweep.recoveries_ok);
    json.Key("old_model_survived").Value(sweep.old_model_survived);
    json.Key("new_model_landed").Value(sweep.new_model_landed);
    json.Key("atomicity_violations").Value(sweep.atomicity_violations);
    json.Key("temp_byte_mismatches").Value(sweep.temp_byte_mismatches);
    json.Key("corrupted_loads_accepted").Value(sweep.corrupted_loads_accepted);
    json.EndObject();
    json.Key("corruption_corpus").BeginObject();
    json.Key("mutations").Value(corpus.mutations);
    json.Key("rejected").Value(corpus.rejected);
    json.Key("accepted").Value(corpus.accepted);
    json.Key("registry_disturbed").Value(corpus.registry_disturbed);
    json.Key("rejections_by_code").BeginObject();
    for (const auto& [code, count] : corpus.by_code) {
      json.Key(code).Value(count);
    }
    json.EndObject();
    json.EndObject();
    json.Key("hot_swap").BeginObject();
    json.Key("strokes").Value(swap.strokes);
    json.Key("swaps").Value(swap.swaps);
    json.Key("stroke_end_results").Value(swap.results);
    json.Key("versions_seen").Value(swap.versions_seen);
    json.Key("divergences").Value(swap.divergences);
    json.EndObject();
    json.Key("accounting").BeginObject();
    json.Key("attempts").Value(attempts);
    json.Key("snapshot_loads_ok").Value(acct.snapshot_loads_ok);
    json.Key("snapshot_loads_failed").Value(acct.snapshot_loads_failed);
    json.Key("model_swaps").Value(acct.model_swaps);
    json.Key("rollbacks").Value(acct.rollbacks);
    json.Key("balanced").Value(balanced);
    json.EndObject();
    json.EndObject();
  }
  std::printf("wrote BENCH_chaos.json\n");

  std::remove(kSnapshotPath);
  std::remove(kCorruptPath);
  std::remove(io::AtomicTempPath(kSnapshotPath).c_str());

  // The gates.
  bool ok = true;
  if (sweep.crashes_fired == 0 || sweep.recoveries_ok != sweep.boundaries_tested ||
      sweep.atomicity_violations != 0 || sweep.temp_byte_mismatches != 0 ||
      sweep.corrupted_loads_accepted != 0) {
    std::fprintf(stderr, "GATE FAILED: crash sweep\n");
    ok = false;
  }
  if (corpus.accepted != 0 || corpus.registry_disturbed != 0 ||
      corpus.rejected != corpus.mutations) {
    std::fprintf(stderr, "GATE FAILED: corruption corpus\n");
    ok = false;
  }
  if (swap.swaps < 20 || swap.divergences != 0 || swap.results != swap.strokes ||
      swap.versions_seen < 2) {
    std::fprintf(stderr, "GATE FAILED: hot swap\n");
    ok = false;
  }
  if (!balanced) {
    std::fprintf(stderr, "GATE FAILED: lifecycle accounting does not balance\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
