#include "serve/server.h"

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/export.h"
#include "obs/trace.h"

namespace grandma::serve {

namespace {

// Max events a shard worker takes from its queue at once. One CAS claims the
// run and one clock read stamps it; per-event processing is unchanged — one
// queue.wait sample, deadline check, and dispatch per event, in submission
// order.
constexpr std::size_t kBatchDequeue = 16;

// SplitMix64 finalizer: sequential session ids (the common allocation
// pattern) must still spread uniformly across shards.
std::uint64_t MixSessionId(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Adds after - before to a shard counter (its single writer), skipping the
// atomic when nothing changed.
void PublishDelta(std::atomic<std::uint64_t>& counter, std::uint64_t before,
                  std::uint64_t after) {
  if (after != before) {
    counter.fetch_add(after - before, std::memory_order_relaxed);
  }
}

}  // namespace

RecognitionServer::RecognitionServer(std::shared_ptr<const RecognizerBundle> bundle,
                                     ServerOptions options, ResultSink on_result)
    : RecognitionServer(bundle == nullptr
                            ? nullptr
                            : std::make_shared<ModelRegistry>(std::move(bundle)),
                        options, std::move(on_result)) {}

RecognitionServer::RecognitionServer(std::shared_ptr<ModelRegistry> registry,
                                     ServerOptions options, ResultSink on_result)
    : registry_(std::move(registry)), options_(options), on_result_(std::move(on_result)) {
  bundle_ = registry_ == nullptr ? nullptr : registry_->Current();
  if (bundle_ == nullptr || !bundle_->recognizer().trained()) {
    throw std::invalid_argument("RecognitionServer: bundle must hold a trained recognizer");
  }
  if (options_.num_shards == 0) {
    throw std::invalid_argument("RecognitionServer: num_shards must be positive");
  }
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>(options_.queue_capacity, options_.admission);
    shard->sessions = std::make_unique<SessionManager>(bundle_, options_.nbest);
    shards_.push_back(std::move(shard));
  }
  if (options_.start_workers) {
    Start();
  }
}

RecognitionServer::~RecognitionServer() { Shutdown(); }

void RecognitionServer::Start() {
  if (started_.exchange(true)) {
    return;
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(*s); });
  }
}

void RecognitionServer::Shutdown() {
  if (shutdown_.exchange(true)) {
    return;
  }
  // Close first so blocked producers wake with a refusal, then make sure the
  // workers exist to drain what was accepted.
  for (auto& shard : shards_) {
    shard->queue.Close();
  }
  Start();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) {
      shard->worker.join();
    }
  }
}

std::size_t RecognitionServer::ShardOf(SessionId session) const {
  return static_cast<std::size_t>(MixSessionId(session) % shards_.size());
}

robust::Status RecognitionServer::Submit(ServeEvent event) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return robust::Status::FailedPrecondition("RecognitionServer: already shut down");
  }
  if (event.type == EventType::kPoints && event.points.empty()) {
    return robust::Status::InvalidArgument("Submit: kPoints event carries no points");
  }
  if (event.type != EventType::kPoints && !event.points.empty()) {
    return robust::Status::InvalidArgument("Submit: only kPoints events carry points");
  }

  Shard& shard = *shards_[ShardOf(event.session)];
  event.enqueue_time = std::chrono::steady_clock::now();

  // kAdaptive resolves to shed or block per shard, per the controller's
  // current mode (one atomic load; the shard worker drives the mode).
  const bool shed = options_.overload == OverloadPolicy::kShed ||
                    (options_.overload == OverloadPolicy::kAdaptive && shard.admission.shedding());
  if (shed) {
    if (!shard.queue.TryPush(std::move(event))) {
      shard.events_shed.fetch_add(1, std::memory_order_relaxed);
      return robust::Status::Overloaded("Submit: shard queue full, event shed");
    }
    return robust::Status::Ok();
  }
  // Blocking path: wait for room; a false return means the queue closed
  // under us.
  if (!shard.queue.Push(std::move(event))) {
    return robust::Status::FailedPrecondition("Submit: server shut down during backpressure");
  }
  return robust::Status::Ok();
}

void RecognitionServer::WorkerLoop(Shard& shard) {
  SessionManager& sessions = *shard.sessions;

  // Wrap the user callback once: count throws instead of tearing down the
  // worker (a misbehaving client sink must not take the shard with it).
  const ResultSink sink = [&shard, this](const RecognitionResult& result) {
    if (!on_result_) {
      return;
    }
    try {
      on_result_(result);
    } catch (...) {
      shard.callback_errors.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // The buffer is reused across batches; PopBatch clears it.
  std::vector<ServeEvent> batch;
  batch.reserve(kBatchDequeue);
  while (shard.queue.PopBatch(batch, kBatchDequeue) > 0) {
    // One clock read per batch: every event in it was dequeued at the same
    // instant, so a shared `now` is both cheaper and more honest.
    const auto now = std::chrono::steady_clock::now();
    for (ServeEvent& dequeued : batch) {
      ServeEvent* const event = &dequeued;
      const double wait_us =
          std::chrono::duration<double, std::micro>(now - event->enqueue_time).count();
      // Enqueue→dequeue wait measured on the real clock by the producer's
      // timestamp; recorded from the consumer side so the span lands on the
      // worker's (single-writer) trace buffer.
      TRACE_MANUAL_SPAN("queue.wait", static_cast<std::uint64_t>(wait_us * 1000.0),
                        event->session);
      // The admission controller sees every dequeued wait — including waits
      // that will expire the event below. Feeding only accepted events would
      // blind the controller exactly when overload is worst.
      if (options_.overload == OverloadPolicy::kAdaptive) {
        shard.admission.RecordWait(wait_us);
      }
      // Deadline budget: an event that overstayed its budget in the queue is
      // dropped before classification — by now the gesture moment it belongs
      // to has passed. Dropped events are excluded from queue_latency (which
      // is the accepted-event wait) and from events_processed. kSessionEnd is
      // exempt: it frees session state, and dropping it would turn overload
      // into a resident-memory leak.
      if (event->deadline_us > 0 && event->type != EventType::kSessionEnd &&
          wait_us > static_cast<double>(event->deadline_us)) {
        shard.events_deadline_expired.fetch_add(1, std::memory_order_relaxed);
        if (options_.on_drop) {
          try {
            options_.on_drop(*event,
                             robust::Status::DeadlineExceeded(
                                 "WorkerLoop: event overstayed its deadline budget in queue"));
          } catch (...) {
            shard.callback_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
        continue;
      }
      shard.queue_latency.RecordMicros(wait_us);
      TRACE_SESSION_SCOPE(event->session);
      TRACE_SPAN("serve.event");

      if (event->type == EventType::kSessionEnd) {
        sessions.Erase(event->session);
      } else {
        Session& session = sessions.GetOrCreate(event->session);
        const SessionStats before = session.stats();

        switch (event->type) {
          case EventType::kStrokeBegin:
            // Stroke boundary: pin whatever the registry currently publishes
            // for this event's user — the base bundle, or the user's adapted
            // bundle when personalization is enabled and a delta exists. The
            // per-point path below stays registry-free (no mutex) while a
            // stroke is open, so neither a hot swap nor a concurrent AdaptUser
            // can mix weights inside it.
            session.BeginStroke(event->stroke, sink, registry_->CurrentFor(event->user));
            break;
          case EventType::kPoints:
            session.AddPoints(event->stroke, event->points.span(), sink,
                              session.in_stroke() ? nullptr
                                                  : registry_->CurrentFor(event->user));
            shard.points_processed.fetch_add(event->points.size(), std::memory_order_relaxed);
            break;
          case EventType::kStrokeEnd:
            session.EndStroke(sink);
            break;
          case EventType::kSessionEnd:
            break;  // handled above
        }

        // Most events move none of these, so an unchanged counter costs no
        // atomic read-modify-write.
        const SessionStats& after = session.stats();
        PublishDelta(shard.strokes_completed, before.strokes_completed, after.strokes_completed);
        PublishDelta(shard.eager_fires, before.eager_fires, after.eager_fires);
        PublishDelta(shard.nbest_deferred, before.nbest_deferred, after.nbest_deferred);
        PublishDelta(shard.nbest_ask_again, before.nbest_ask_again, after.nbest_ask_again);
      }
      shard.events_processed.fetch_add(1, std::memory_order_relaxed);
      shard.sessions_created.store(sessions.created(), std::memory_order_relaxed);
      shard.sessions_resident.store(sessions.size(), std::memory_order_relaxed);
    }
  }
}

ServerMetrics RecognitionServer::Metrics() const {
  ServerMetrics out;
  out.models = registry_->Metrics();
  out.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    ShardMetrics m;
    m.shard = i;
    m.events_processed = s.events_processed.load(std::memory_order_relaxed);
    m.points_processed = s.points_processed.load(std::memory_order_relaxed);
    m.strokes_completed = s.strokes_completed.load(std::memory_order_relaxed);
    m.eager_fires = s.eager_fires.load(std::memory_order_relaxed);
    m.sessions_created = s.sessions_created.load(std::memory_order_relaxed);
    m.sessions_resident = s.sessions_resident.load(std::memory_order_relaxed);
    m.events_shed = s.events_shed.load(std::memory_order_relaxed);
    m.events_deadline_expired = s.events_deadline_expired.load(std::memory_order_relaxed);
    m.callback_errors = s.callback_errors.load(std::memory_order_relaxed);
    m.nbest_deferred = s.nbest_deferred.load(std::memory_order_relaxed);
    m.nbest_ask_again = s.nbest_ask_again.load(std::memory_order_relaxed);
    m.admission_shedding = s.admission.shedding();
    m.admission_evaluations = s.admission.evaluations();
    m.admission_switches_to_shed = s.admission.switches_to_shed();
    m.admission_switches_to_block = s.admission.switches_to_block();
    m.queue_capacity = s.queue.capacity();
    m.queue_max_depth = s.queue.max_depth();
    m.queue_latency = s.queue_latency.Snapshot();
    out.shards.push_back(std::move(m));
  }
  // Per-stage span histograms accumulate process-wide (all shards, plus any
  // in-process training); surfacing them here makes /metrics the one-stop
  // snapshot. Empty unless tracing is compiled in and was enabled.
  out.stages = obs::SnapshotStages();
  return out;
}

}  // namespace grandma::serve
