// Contract tests for the filter-inbox queue. The heavy concurrency
// schedules live in test_queue_stress.cpp; this file pins the
// single-threaded semantics, the blocking/unblocking edges, and the stats
// accounting. The suite stays typed (one type, named "locked") so its test
// names keep the QueueContract/locked form.
#include "fs/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace h4d::fs {
namespace {

template <typename Q>
class QueueContract : public ::testing::Test {};

struct ImplName {
  template <typename Q>
  static std::string GetName(int) {
    return "locked";
  }
};

using Impls = ::testing::Types<BoundedQueue<int>>;
TYPED_TEST_SUITE(QueueContract, Impls, ImplName);

TYPED_TEST(QueueContract, FifoOrder) {
  TypeParam q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop(), i);
}

TYPED_TEST(QueueContract, SizeTracksContents) {
  TypeParam q(8);
  EXPECT_EQ(q.size(), 0u);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TYPED_TEST(QueueContract, CloseDrainsThenReturnsNullopt) {
  TypeParam q(8);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));  // push after close fails
  EXPECT_EQ(q.pop(), 1);    // existing items drain
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TYPED_TEST(QueueContract, PopBlocksUntilPush) {
  TypeParam q(4);
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(42);
  });
  EXPECT_EQ(q.pop(), 42);  // blocks until the producer delivers
  producer.join();
}

TYPED_TEST(QueueContract, PushBlocksWhenFull) {
  TypeParam q(2);
  q.push(1);
  q.push(2);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.push(3);  // blocks until a pop frees a slot
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TYPED_TEST(QueueContract, CloseUnblocksWaitingPop) {
  TypeParam q(4);
  std::thread closer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
  });
  EXPECT_EQ(q.pop(), std::nullopt);
  closer.join();
}

TYPED_TEST(QueueContract, ManyProducersManyConsumers) {
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 500;
  TypeParam q(16);
  std::atomic<long> sum{0};
  std::atomic<int> count{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kItemsEach; ++i) q.push(p * kItemsEach + i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        count++;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t i = kProducers; i < threads.size(); ++i) threads[i].join();

  const long n = kProducers * kItemsEach;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TYPED_TEST(QueueContract, StatsRecordDepthAndStalls) {
  TypeParam q(2);
  EXPECT_EQ(q.stats().max_depth, 0u);
  q.push(1);
  q.push(2);
  {
    const QueueStats s = q.stats();
    EXPECT_EQ(s.max_depth, 2u);
    EXPECT_EQ(s.stalled_pushes, 0);
    EXPECT_EQ(s.stall_seconds, 0.0);
  }
  std::thread producer([&] { q.push(3); });  // stalls against the full queue
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  const QueueStats s = q.stats();
  EXPECT_EQ(s.max_depth, 2u);
  EXPECT_EQ(s.stalled_pushes, 1);
  EXPECT_GT(s.stall_seconds, 0.0);
}

TYPED_TEST(QueueContract, StatsUnderProducerContention) {
  // Several producers stall against a full queue at once while a slow
  // consumer drains: max_depth must saturate at (and never exceed) the
  // capacity, every producer's first blocked push must be counted, and the
  // waited time must accumulate from all of them.
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 50;
  TypeParam q(2);
  q.push(-1);
  q.push(-2);  // full before any contender arrives

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kItemsEach; ++i) q.push(p * kItemsEach + i);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  int popped = 0;
  while (q.pop()) {
    if (++popped % 16 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (popped == 2 + kProducers * kItemsEach) break;
  }
  for (std::thread& t : producers) t.join();
  q.close();

  EXPECT_EQ(popped, 2 + kProducers * kItemsEach);
  const QueueStats s = q.stats();
  EXPECT_EQ(s.max_depth, 2u);  // backpressure held: never above capacity
  EXPECT_GE(s.stalled_pushes, kProducers);  // each contender stalled at least once
  EXPECT_GT(s.stall_seconds, 0.0);
}

TYPED_TEST(QueueContract, ZeroCapacityClampedToOne) {
  TypeParam q(0);
  EXPECT_EQ(q.capacity(), 1u);
  q.push(9);
  EXPECT_EQ(q.pop(), 9);
}

TYPED_TEST(QueueContract, CloseUnblocksWaitingPush) {
  // The fatal-error path relies on this: a producer blocked on a wedged
  // consumer's full inbox must unwind (push returns false) once the
  // supervisor closes every stream.
  TypeParam q(1);
  q.push(1);
  std::atomic<bool> unblocked{false};
  std::atomic<bool> accepted{true};
  std::thread producer([&] {
    accepted = q.push(2);
    unblocked = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(unblocked.load());
  q.close();
  producer.join();
  EXPECT_TRUE(unblocked.load());
  EXPECT_FALSE(accepted.load());
}

TYPED_TEST(QueueContract, PushForEnqueuesWhenSpaceAvailable) {
  TypeParam q(2);
  EXPECT_EQ(q.push_for(1, std::chrono::milliseconds(1)), PushOutcome::Ok);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.stats().stalled_pushes, 0);
}

TYPED_TEST(QueueContract, PushForTimesOutAgainstFullQueue) {
  TypeParam q(1);
  q.push(1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.push_for(2, std::chrono::milliseconds(30)), PushOutcome::Timeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(25));
  EXPECT_EQ(q.pop(), 1);  // the timed-out item was never enqueued
  EXPECT_EQ(q.size(), 0u);
}

TYPED_TEST(QueueContract, PushForReportsClosed) {
  TypeParam q(1);
  q.close();
  EXPECT_EQ(q.push_for(1, std::chrono::milliseconds(1)), PushOutcome::Closed);

  // Closing while a timed push waits also unblocks it with Closed.
  TypeParam full(1);
  full.push(1);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    full.close();
  });
  EXPECT_EQ(full.push_for(2, std::chrono::seconds(10)), PushOutcome::Closed);
  closer.join();
}

TYPED_TEST(QueueContract, PushForSucceedsWhenSlotFreesUp) {
  TypeParam q(1);
  q.push(1);
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.pop();
  });
  EXPECT_EQ(q.push_for(2, std::chrono::seconds(10)), PushOutcome::Ok);
  consumer.join();
  EXPECT_EQ(q.pop(), 2);
}

TYPED_TEST(QueueContract, PushForStallAccountingIsOptional) {
  TypeParam q(1);
  q.push(1);
  // A retry loop counts the stall once (first slice), not per slice: the
  // executor passes count_stall=false on follow-up slices.
  EXPECT_EQ(q.push_for(2, std::chrono::milliseconds(5)), PushOutcome::Timeout);
  EXPECT_EQ(q.push_for(2, std::chrono::milliseconds(5), /*count_stall=*/false),
            PushOutcome::Timeout);
  const QueueStats s = q.stats();
  EXPECT_EQ(s.stalled_pushes, 1);
  EXPECT_GT(s.stall_seconds, 0.0);  // waited time is always accounted
}

TYPED_TEST(QueueContract, TryPopIsNonBlockingAndFreesASlot) {
  TypeParam q(1);
  EXPECT_EQ(q.try_pop(), std::nullopt);  // empty: returns immediately
  q.push(7);
  std::atomic<bool> unblocked{false};
  std::thread producer([&] {
    q.push(8);  // blocked: queue full
    unblocked = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(unblocked.load());
  EXPECT_EQ(q.try_pop(), 7);  // frees the slot, waking the producer
  producer.join();
  EXPECT_TRUE(unblocked.load());
  EXPECT_EQ(q.try_pop(), 8);

  q.close();
  EXPECT_EQ(q.try_pop(), std::nullopt);  // closed and drained
}

}  // namespace
}  // namespace h4d::fs
