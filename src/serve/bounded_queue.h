// A bounded multi-producer multi-consumer queue: the backpressure point of
// the recognition server, one per shard. Producers either block until space
// frees up (backpressure) or fail fast when full (shed) — the server picks
// per its OverloadPolicy. Closing the queue wakes everyone; consumers drain
// whatever is left before seeing end-of-stream, so shutdown never loses an
// event whose push succeeded.
//
// Layout: a fixed ring of slots that carry sequence numbers (Vyukov's
// bounded MPMC queue). A producer claims a slot with one CAS on the push
// cursor, writes the item, and publishes it by advancing the slot's sequence;
// a consumer claims a run of published slots with one CAS on the pop cursor
// and frees each one by advancing its sequence a lap. Each slot sits on its
// own cache line(s), and the two cursors sit on separate lines. The ring has
// at least two slots (a sequence ring cannot work with one), so the depth
// bound `capacity` is enforced separately against the cursors. The closed
// flag lives in the push cursor's low bit: a push can only succeed by a CAS
// that sees it clear, so no push succeeds after Close, and the final push
// position is exactly where consumers stop draining.
//
// Waking: nothing on the per-event path takes a lock or makes a syscall
// while the other side is awake.
//   - An empty consumer spins for kSpinBudget, then parks on an atomic word
//     (std::atomic::wait). A producer notifies only when that word says a
//     consumer parked. Both sides use a seq_cst store followed by a seq_cst
//     load (consumer: flag, then ring; producer: slot, then flag), so at
//     least one of them sees the other and no wakeup is lost.
//   - A producer that finds the queue full under Push parks at once. Spinning
//     there would poll the very slot the consumer pops next. The consumer
//     wakes parked producers only after draining to half the capacity, so a
//     woken producer finds room for a burst rather than one slot.
//
// Observability: the queue itself stays trace-free (it is templated and its
// waits span two threads, which a per-thread RAII span cannot represent).
// Instead the server stamps ServeEvent::enqueue_time at Push and the worker
// records the enqueue→dequeue wait as the "queue.wait" stage on its own
// buffer right after PopBatch (see RecognitionServer::WorkerLoop).
#ifndef GRANDMA_SRC_SERVE_BOUNDED_QUEUE_H_
#define GRANDMA_SRC_SERVE_BOUNDED_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace grandma::serve {

namespace queue_detail {

inline constexpr std::size_t kCacheLine = 64;

// How long an empty consumer polls before it parks. A park→wake round trip
// through the futex measured about 5 us on a 4-core x86 host, against about
// 7 us between events per shard in the one-point-per-event open loop
// (perfbench gdp_mouse). Parking between such events would add a wake to
// nearly every one of them, so the worker polls across several gaps instead.
// The cost is CPU: a steady trickle keeps one core per shard busy, while an
// idle queue parks within this budget.
inline constexpr std::chrono::microseconds kSpinBudget{50};

// A pause costs from ~10 to ~150 cycles depending on the CPU, so the spin is
// bounded by the clock, read once per this many pauses.
inline constexpr int kPausesPerClockRead = 32;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace queue_detail

// Thread-safety: every method is safe to call from any thread. T must be
// default-constructible and move-assignable (slots hold a T for their whole
// lifetime; items are moved in and out).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(ValidCapacity(capacity)),
        mask_(std::bit_ceil(std::max<std::size_t>(capacity, 2)) - 1),
        slots_(std::make_unique<Slot[]>(mask_ + 1)) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Non-blocking push; false when the queue is full or closed.
  bool TryPush(T item) { return Enqueue(item) == PushResult::kOk; }

  // Blocking push: parks while full; false when the queue is (or becomes)
  // closed, in which case `item` is dropped.
  bool Push(T item) {
    for (;;) {
      const PushResult result = Enqueue(item);
      if (result != PushResult::kFull) {
        return result == PushResult::kOk;
      }
      push_parked_.store(1, std::memory_order_seq_cst);
      if (MustWaitForRoom()) {
        push_parked_.wait(1, std::memory_order_seq_cst);
      }
    }
  }

  // Batch pop: waits while empty, then moves up to `max_items` into `out`
  // (cleared first) and returns the count. Returns 0 only once the queue is
  // closed AND fully drained (close-then-drain shutdown semantics). Draining
  // a run of events per call claims them with one CAS and amortizes the
  // consumer's clock read across a burst.
  std::size_t PopBatch(std::vector<T>& out, std::size_t max_items) {
    out.clear();
    if (max_items == 0) {
      return 0;
    }
    for (;;) {
      const std::size_t taken = Dequeue(out, max_items);
      if (taken > 0) {
        WakeProducersIfDrained();
        return taken;
      }
      if (!AwaitItem()) {
        return 0;
      }
    }
  }

  // No pushes succeed after this; pops drain the remainder. Idempotent.
  void Close() {
    tail_.fetch_or(kClosedBit, std::memory_order_seq_cst);
    WakeAll(pop_parked_);
    WakeAll(push_parked_);
  }

  bool closed() const { return (tail_.load(std::memory_order_acquire) & kClosedBit) != 0; }

  std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    return Depth(tail_.load(std::memory_order_acquire) >> 1, head);
  }

  // High-water mark of size() since construction (queue-depth metric);
  // never above capacity().
  std::size_t max_depth() const { return max_depth_.load(std::memory_order_relaxed); }

  std::size_t capacity() const { return capacity_; }

  // Bytes one ring slot occupies: the item plus its sequence word, rounded up
  // to whole cache lines.
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }

 private:
  enum class PushResult : std::uint8_t { kOk, kFull, kClosed };

  // The push cursor holds (next push position << 1) | closed.
  static constexpr std::size_t kClosedBit = 1;

  struct alignas(queue_detail::kCacheLine) Slot {
    // == position: free for the push at that position; == position + 1:
    // holds the item pushed there; advanced one lap when popped.
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  static std::size_t ValidCapacity(std::size_t capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("BoundedQueue: capacity must be positive");
    }
    return capacity;
  }

  // Items pushed at positions [head, tail); 0 when a stale `tail` trails.
  static std::size_t Depth(std::size_t tail, std::size_t head) {
    return tail > head ? tail - head : 0;
  }

  // Moves `item` into the ring unless it is full or closed.
  PushResult Enqueue(T& item) {
    std::size_t word = tail_.load(std::memory_order_relaxed);
    for (;;) {
      if ((word & kClosedBit) != 0) {
        return PushResult::kClosed;
      }
      const std::size_t pos = word >> 1;
      // The cached pop cursor trails the real one, so it overstates the
      // depth. Read the consumer's line only when that overstatement could
      // mean "full" or a new high-water mark.
      std::size_t head = head_cache_.load(std::memory_order_relaxed);
      const bool fresh = Depth(pos + 1, head) > max_depth_.load(std::memory_order_relaxed);
      if (fresh) {
        head = head_.load(std::memory_order_seq_cst);
        head_cache_.store(head, std::memory_order_relaxed);
        if (Depth(pos, head) >= capacity_) {
          return PushResult::kFull;
        }
      }
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == pos) {
        if (tail_.compare_exchange_weak(word, word + 2, std::memory_order_relaxed)) {
          slot.value = std::move(item);
          // The seq_cst store pairs with the load of pop_parked_ below.
          slot.seq.store(pos + 1, std::memory_order_seq_cst);
          if (fresh) {
            NoteDepth(Depth(pos + 1, head));
          }
          if (pop_parked_.load(std::memory_order_seq_cst) != 0) {
            WakeAll(pop_parked_);
          }
          return PushResult::kOk;
        }
        continue;  // the failed CAS reloaded `word`
      }
      if (static_cast<std::ptrdiff_t>(seq - pos) < 0) {
        // The slot's item from one lap ago is claimed (the depth is below
        // capacity) but its consumer has not released it yet.
        queue_detail::CpuRelax();
      }
      word = tail_.load(std::memory_order_relaxed);
    }
  }

  // Claims the longest run (up to max_items) of published slots at the pop
  // cursor with one CAS and moves their items into `out`.
  std::size_t Dequeue(std::vector<T>& out, std::size_t max_items) {
    std::size_t head = head_.load(std::memory_order_relaxed);
    for (;;) {
      std::size_t n = 0;
      while (n < max_items &&
             slots_[(head + n) & mask_].seq.load(std::memory_order_acquire) == head + n + 1) {
        ++n;
      }
      if (n == 0) {
        return 0;
      }
      if (head_.compare_exchange_weak(head, head + n, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < n; ++i) {
          Slot& slot = slots_[(head + i) & mask_];
          out.push_back(std::move(slot.value));
          slot.seq.store(head + i + mask_ + 1, std::memory_order_release);
        }
        return n;
      }
    }
  }

  // True once closed and every pushed item has been claimed.
  bool Drained() const {
    const std::size_t word = tail_.load(std::memory_order_seq_cst);
    return (word & kClosedBit) != 0 && head_.load(std::memory_order_seq_cst) == (word >> 1);
  }

  // True when the slot at the pop cursor holds a published item.
  bool HeadPublished() const {
    const std::size_t head = head_.load(std::memory_order_seq_cst);
    return slots_[head & mask_].seq.load(std::memory_order_seq_cst) == head + 1;
  }

  // Waits for an item: spins up to kSpinBudget, then parks until a producer
  // or Close wakes this consumer. False once the queue is drained. The spin
  // polls only the slot at the pop cursor, never the producers' cursor line,
  // so a closed queue is noticed when the spin ends.
  bool AwaitItem() {
    const auto deadline = std::chrono::steady_clock::now() + queue_detail::kSpinBudget;
    for (int spins = 1; !HeadPublished(); ++spins) {
      queue_detail::CpuRelax();
      if (spins % queue_detail::kPausesPerClockRead == 0 &&
          std::chrono::steady_clock::now() >= deadline) {
        // Left set when the re-check wins the race: one spare notify, never
        // a lost wake (clearing it could erase another consumer's
        // announcement).
        pop_parked_.store(1, std::memory_order_seq_cst);
        if (HeadPublished()) {
          return true;
        }
        if (Drained()) {
          return false;
        }
        pop_parked_.wait(1, std::memory_order_seq_cst);
        return true;
      }
    }
    return true;
  }

  // A parked producer's last look: true while open and still full.
  bool MustWaitForRoom() const {
    const std::size_t word = tail_.load(std::memory_order_seq_cst);
    return (word & kClosedBit) == 0 &&
           Depth(word >> 1, head_.load(std::memory_order_seq_cst)) >= capacity_;
  }

  void WakeProducersIfDrained() {
    if (push_parked_.load(std::memory_order_seq_cst) != 0 &&
        Depth(tail_.load(std::memory_order_seq_cst) >> 1,
              head_.load(std::memory_order_relaxed)) <= capacity_ / 2) {
      WakeAll(push_parked_);
    }
  }

  static void WakeAll(std::atomic<std::uint32_t>& parked) {
    if (parked.exchange(0, std::memory_order_seq_cst) != 0) {
      parked.notify_all();
    }
  }

  void NoteDepth(std::size_t depth) {
    std::size_t seen = max_depth_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_depth_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
    }
  }

  const std::size_t capacity_;
  const std::size_t mask_;  // slot count - 1 (a power of two, >= 2 slots)
  const std::unique_ptr<Slot[]> slots_;
  // Producer side: push cursor + closed bit, the depth high-water mark, and
  // a possibly stale copy of the pop cursor.
  alignas(queue_detail::kCacheLine) std::atomic<std::size_t> tail_{0};
  std::atomic<std::size_t> max_depth_{0};
  std::atomic<std::size_t> head_cache_{0};
  // Consumer side: pop cursor.
  alignas(queue_detail::kCacheLine) std::atomic<std::size_t> head_{0};
  // Nonzero once a consumer announced it is parking on an empty queue.
  alignas(queue_detail::kCacheLine) std::atomic<std::uint32_t> pop_parked_{0};
  // Nonzero once a producer announced it is parking on a full queue.
  alignas(queue_detail::kCacheLine) std::atomic<std::uint32_t> push_parked_{0};
};

}  // namespace grandma::serve

#endif  // GRANDMA_SRC_SERVE_BOUNDED_QUEUE_H_
