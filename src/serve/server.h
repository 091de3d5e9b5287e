// The concurrent multi-session recognition server. N shard workers each own
// a bounded event queue and a private session table; a session is pinned to
// one shard by id hash, so all of its events are processed in submission
// order by one thread while different sessions recognize in parallel. The
// only shared mutable state is the queues (lock-free rings whose idle
// workers spin briefly, then park; see bounded_queue.h) and the metrics
// (relaxed atomics); the trained model is shared immutably via
// RecognizerBundle.
//
//   clients --Submit--> [shard queue]... --worker--> SessionManager
//                                                    -> EagerStream per point
//                                                    -> ResultCallback
//
// Overload: with OverloadPolicy::kShed a full shard queue rejects the event
// with robust::Status kOverloaded (counted per shard); with kBlock the
// submitting thread waits for space — backpressure propagates to producers.
// kAdaptive starts as kBlock and flips per shard to kShed (and back) from a
// hysteresis controller over observed queue-wait tail latency (admission.h).
// Independently, events carrying a deadline_us budget that expires while
// queued are dropped by the worker before classification (typed
// kDeadlineExceeded, ServerOptions::on_drop, events_deadline_expired).
#ifndef GRANDMA_SRC_SERVE_SERVER_H_
#define GRANDMA_SRC_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "robust/status.h"
#include "serve/admission.h"
#include "serve/bounded_queue.h"
#include "serve/event.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/recognizer_bundle.h"
#include "serve/session_manager.h"

namespace grandma::serve {

enum class OverloadPolicy : std::uint8_t {
  // Reject events when the target shard queue is full (fail fast, shed load).
  kShed,
  // Block the submitter until the queue has room (backpressure).
  kBlock,
  // Start in kBlock and let a per-shard AdmissionController flip the shard
  // to kShed (and back) from observed queue-wait tail latency — graceful
  // degradation under sustained overload, lossless otherwise. Tuned by
  // ServerOptions::admission.
  kAdaptive,
};

// Each queued event costs one ring slot: the 8-byte sequence word plus the
// event, in 64-byte lines. PointBuffer::kInlinePoints is sized to fill the
// two lines exactly, so a new ServeEvent field must make room rather than
// silently double the ring.
static_assert(BoundedQueue<ServeEvent>::slot_bytes() == 128);

// Invoked on the worker thread for every accepted event the worker drops
// instead of processing (today: deadline expiry, status kDeadlineExceeded).
// Same thread-safety contract as ResultSink; exceptions are swallowed and
// counted as callback_errors.
using DropSink = std::function<void(const ServeEvent&, const robust::Status&)>;

struct ServerOptions {
  std::size_t num_shards = 1;
  // Per-shard event queue capacity.
  std::size_t queue_capacity = 1024;
  OverloadPolicy overload = OverloadPolicy::kShed;
  // Hysteresis tuning for OverloadPolicy::kAdaptive (ignored otherwise).
  AdmissionOptions admission;
  // Optional observer for worker-side drops (deadline-expired events).
  DropSink on_drop;
  // When false, workers are not spawned until Start() — events queue up (and
  // shed) deterministically. Tests use this to exercise the backpressure and
  // drain paths without timing races.
  bool start_workers = true;
  // N-best configuration applied to every session (depth 0 = disabled, the
  // legacy single-answer surface). See serve::NBestOptions / session.h.
  NBestOptions nbest;
};

// Thread-safety: Submit, Metrics, ShardOf, and Shutdown may be called from
// any thread. The ResultCallback runs on shard worker threads — possibly
// several concurrently for different sessions — and must be thread-safe
// across sessions; per session it is totally ordered. Exceptions it throws
// are swallowed and counted (callback_errors).
class RecognitionServer {
 public:
  // Single-model server: wraps `bundle` in a private ModelRegistry (the
  // model can still be hot-swapped through registry()).
  RecognitionServer(std::shared_ptr<const RecognizerBundle> bundle, ServerOptions options,
                    ResultSink on_result);

  // Hot-reload server: serves whatever `registry` currently publishes.
  // Sessions pin the bundle at stroke start, so a swap (or a registry
  // LoadFromFile) takes effect on the next stroke of each session and never
  // mixes models mid-stroke. The registry may be shared with an operator
  // thread that calls LoadFromFile concurrently.
  RecognitionServer(std::shared_ptr<ModelRegistry> registry, ServerOptions options,
                    ResultSink on_result);
  ~RecognitionServer();

  RecognitionServer(const RecognitionServer&) = delete;
  RecognitionServer& operator=(const RecognitionServer&) = delete;

  // Routes `event` to its session's shard. Stamps event.enqueue_time.
  // Errors: kInvalidArgument (malformed event), kOverloaded (kShed policy,
  // queue full), kFailedPrecondition (server shut down; also returned by
  // kBlock submits raced with shutdown).
  robust::Status Submit(ServeEvent event);

  // Spawns the workers when constructed with start_workers = false. No-op
  // when they are already running.
  void Start();

  // Closes every queue, lets the workers drain what was already accepted,
  // and joins them. Idempotent; called by the destructor.
  void Shutdown();

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t ShardOf(SessionId session) const;
  // The bundle the server was constructed with (kept alive for the server's
  // lifetime). Under hot reload the *current* model is registry()->Current().
  const RecognizerBundle& bundle() const { return *bundle_; }
  // The registry serving this server; never null.
  const std::shared_ptr<ModelRegistry>& registry() const { return registry_; }

  // Point-in-time snapshot; safe while the server is running.
  ServerMetrics Metrics() const;

 private:
  struct Shard {
    Shard(std::size_t capacity, const AdmissionOptions& admission_options)
        : queue(capacity), admission(admission_options) {}

    BoundedQueue<ServeEvent> queue;
    // Per-shard hysteresis controller (consulted only under kAdaptive).
    AdmissionController admission;
    // Worker-private; constructed before the worker starts, read by it only.
    std::unique_ptr<SessionManager> sessions;
    std::thread worker;
    // Counters: single logical writer each, relaxed reads from Metrics().
    std::atomic<std::uint64_t> events_processed{0};
    std::atomic<std::uint64_t> points_processed{0};
    std::atomic<std::uint64_t> strokes_completed{0};
    std::atomic<std::uint64_t> eager_fires{0};
    std::atomic<std::uint64_t> sessions_resident{0};
    std::atomic<std::uint64_t> sessions_created{0};
    std::atomic<std::uint64_t> events_shed{0};  // producer-side writer
    std::atomic<std::uint64_t> events_deadline_expired{0};
    std::atomic<std::uint64_t> callback_errors{0};
    std::atomic<std::uint64_t> nbest_deferred{0};
    std::atomic<std::uint64_t> nbest_ask_again{0};
    // Queue wait of events the worker actually processed (accepted-event
    // latency; deadline-expired drops are excluded and counted above).
    LatencyHistogram queue_latency;
  };

  void WorkerLoop(Shard& shard);

  std::shared_ptr<ModelRegistry> registry_;
  // The construction-time bundle, retained so bundle() stays valid across
  // swaps.
  std::shared_ptr<const RecognizerBundle> bundle_;
  ServerOptions options_;
  ResultSink on_result_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> started_{false};
  std::atomic<bool> shutdown_{false};
};

}  // namespace grandma::serve

#endif  // GRANDMA_SRC_SERVE_SERVER_H_
