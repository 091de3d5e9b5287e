// serve::BoundedQueue, the per-shard event ring: the capacity bound (which
// is separate from the ring's power-of-two slot count), close-then-drain,
// both park/wake paths, and an MPMC stress run with Close racing the
// producers. Labeled `serve` with the rest of serve_tests, so the tsan
// preset runs all of it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/bounded_queue.h"

namespace grandma::serve {
namespace {

using namespace std::chrono_literals;

// Far past the consumer's spin budget, so a waiting thread has parked.
constexpr auto kPastSpinBudget = queue_detail::kSpinBudget * 400;

std::vector<int> PopAll(BoundedQueue<int>& q) {
  std::vector<int> all;
  std::vector<int> batch;
  while (q.size() > 0 && q.PopBatch(batch, 16) > 0) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

// Polls `done` for up to 10 s; a queue that never wakes fails instead of
// hanging the suite.
bool Eventually(const std::atomic<bool>& done) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!done.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  // 1 and 2 are the smallest ring (two slots); 3 leaves a slot of a
  // four-slot ring unused. Several laps check the bound holds after wrap.
  for (const std::size_t capacity : {1u, 2u, 3u}) {
    BoundedQueue<int> q(capacity);
    int next = 0;
    for (int lap = 0; lap < 5; ++lap) {
      const int first = next;
      for (std::size_t i = 0; i < capacity; ++i) {
        EXPECT_TRUE(q.TryPush(next++)) << "capacity " << capacity << " lap " << lap;
      }
      EXPECT_FALSE(q.TryPush(-1)) << "capacity " << capacity << " lap " << lap;
      EXPECT_EQ(q.size(), capacity);
      EXPECT_EQ(q.max_depth(), capacity);
      std::vector<int> want;
      for (int v = first; v < next; ++v) {
        want.push_back(v);
      }
      EXPECT_EQ(PopAll(q), want) << "capacity " << capacity << " lap " << lap;
    }
    EXPECT_EQ(q.capacity(), capacity);
  }
}

TEST(BoundedQueueTest, CloseDrainsThenEndsStream) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.TryPush(7));
  ASSERT_TRUE(q.TryPush(8));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(9));
  EXPECT_FALSE(q.Push(10));
  std::vector<int> batch;
  ASSERT_EQ(q.PopBatch(batch, 1), 1u);
  EXPECT_EQ(batch, std::vector<int>{7});
  ASSERT_EQ(q.PopBatch(batch, 1), 1u);
  EXPECT_EQ(batch, std::vector<int>{8});
  EXPECT_EQ(q.PopBatch(batch, 1), 0u);
  EXPECT_TRUE(batch.empty());
}

TEST(BoundedQueueTest, BlockingPushWaitsForPop) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(1));
  std::thread producer([&q] { EXPECT_TRUE(q.Push(2)); });
  std::vector<int> batch;
  ASSERT_EQ(q.PopBatch(batch, 1), 1u);
  EXPECT_EQ(batch, std::vector<int>{1});
  ASSERT_EQ(q.PopBatch(batch, 1), 1u);
  EXPECT_EQ(batch, std::vector<int>{2});
  producer.join();
}

TEST(BoundedQueueTest, ZeroCapacityRejected) {
  EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
}

TEST(BoundedQueueTest, PopBatchTakesARunInOrder) {
  BoundedQueue<int> q(8);
  for (int v = 0; v < 6; ++v) {
    ASSERT_TRUE(q.TryPush(v));
  }
  std::vector<int> batch;
  ASSERT_EQ(q.PopBatch(batch, 4), 4u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(q.PopBatch(batch, 16), 2u);
  EXPECT_EQ(batch, (std::vector<int>{4, 5}));
  EXPECT_EQ(q.PopBatch(batch, 0), 0u);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.max_depth(), 6u);
}

TEST(BoundedQueueTest, ParkedConsumerWakesOnPush) {
  BoundedQueue<int> q(4);
  std::atomic<bool> done{false};
  std::vector<int> got;
  std::thread consumer([&] {
    q.PopBatch(got, 16);
    done.store(true);
  });
  std::this_thread::sleep_for(kPastSpinBudget);
  EXPECT_FALSE(done.load());
  ASSERT_TRUE(q.TryPush(42));
  const bool woke = Eventually(done);
  q.Close();  // unblocks the consumer if the push did not
  consumer.join();
  EXPECT_TRUE(woke) << "a push did not wake the parked consumer";
  EXPECT_EQ(got, std::vector<int>{42});
}

TEST(BoundedQueueTest, ParkedProducerWakesWhenDrainedToHalf) {
  BoundedQueue<int> q(4);
  for (int v = 1; v <= 4; ++v) {
    ASSERT_TRUE(q.TryPush(v));
  }
  std::atomic<bool> done{false};
  bool pushed = false;
  std::thread producer([&] {
    pushed = q.Push(5);
    done.store(true);
  });
  std::this_thread::sleep_for(kPastSpinBudget);
  EXPECT_FALSE(done.load());

  // The late consumer: one pop leaves 3 of 4, above half, so the producer
  // stays parked; the second reaches half and wakes it.
  std::vector<int> batch;
  ASSERT_EQ(q.PopBatch(batch, 1), 1u);
  std::this_thread::sleep_for(kPastSpinBudget);
  EXPECT_FALSE(done.load());
  ASSERT_EQ(q.PopBatch(batch, 1), 1u);
  const bool woke = Eventually(done);
  q.Close();  // unblocks the producer if the pops did not
  producer.join();
  EXPECT_TRUE(woke) << "draining to half did not wake the parked producer";
  EXPECT_TRUE(pushed);
  EXPECT_EQ(PopAll(q), (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(q.max_depth(), 4u);
}

// 4 producers (two blocking, two shedding-and-retrying) race Close while one
// PopBatch consumer drains a small ring. Every accepted item is popped
// exactly once, in its producer's order; no push started after Close
// returned succeeds; and a producer sees no success after its first refusal.
TEST(BoundedQueueTest, MpmcStressCloseRacesProducers) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kMaxPerProducer = 1u << 20;
  BoundedQueue<std::uint64_t> q(8);
  std::atomic<bool> close_returned{false};
  std::vector<std::uint64_t> accepted(kProducers, 0);
  std::vector<int> late_successes(kProducers, 0);
  std::vector<int> successes_after_refusal(kProducers, 0);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const bool blocking = p % 2 == 0;
      bool refused = false;
      for (std::uint64_t k = 0; k < kMaxPerProducer;) {
        const bool after_close = close_returned.load();
        const std::uint64_t item = (static_cast<std::uint64_t>(p) << 32) | k;
        const bool ok = blocking ? q.Push(item) : q.TryPush(item);
        if (ok) {
          late_successes[p] += after_close ? 1 : 0;
          successes_after_refusal[p] += refused ? 1 : 0;
          ++accepted[p];
          ++k;
        } else if (blocking || q.closed()) {
          if (refused) {
            return;  // refused twice in a row: the queue is closed
          }
          refused = true;
        } else {
          std::this_thread::yield();  // full: retry the same item
        }
      }
    });
  }

  std::vector<std::uint64_t> popped(kProducers, 0);
  std::uint64_t out_of_order = 0;
  std::thread consumer([&] {
    std::vector<std::uint64_t> batch;
    while (q.PopBatch(batch, 16) > 0) {
      for (const std::uint64_t item : batch) {
        const auto p = static_cast<std::size_t>(item >> 32);
        const std::uint64_t k = item & 0xffffffffu;
        out_of_order += k == popped[p] ? 0 : 1;
        popped[p] = k + 1;
      }
    }
  });

  std::this_thread::sleep_for(20ms);
  q.Close();
  close_returned.store(true);
  for (auto& t : producers) {
    t.join();
  }
  consumer.join();

  EXPECT_EQ(out_of_order, 0u);
  EXPECT_LE(q.max_depth(), q.capacity());
  std::uint64_t total = 0;
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(popped[p], accepted[p]) << "producer " << p;
    EXPECT_EQ(late_successes[p], 0) << "producer " << p;
    EXPECT_EQ(successes_after_refusal[p], 0) << "producer " << p;
    total += accepted[p];
  }
  EXPECT_GT(total, 0u);
  EXPECT_FALSE(q.TryPush(0));
  EXPECT_FALSE(q.Push(0));
}

}  // namespace
}  // namespace grandma::serve
