// Concurrency stress suite for the filter-inbox queue, built on the
// stress_queue.hpp harness. Every scenario checks exact item conservation
// and per-producer FIFO order; the suite is part of the TSan CI tier. It
// stays typed (one type, named "locked") so its test names keep the
// QueueStress/locked form.
#include "stress_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fs/queue.hpp"

namespace h4d::fs {
namespace {

template <typename Q>
class QueueStress : public ::testing::Test {};

struct ImplName {
  template <typename Q>
  static std::string GetName(int) {
    return "locked";
  }
};

using Impls = ::testing::Types<BoundedQueue<std::uint64_t>>;
TYPED_TEST_SUITE(QueueStress, Impls, ImplName);

TYPED_TEST(QueueStress, ConservationManyProducersManyConsumers) {
  stress::Plan plan;
  plan.producers = 4;
  plan.consumers = 4;
  plan.items_per_producer = 2000;
  plan.capacity = 16;
  plan.seed = 11;
  TypeParam q(plan.capacity);
  const stress::Outcome out = stress::run_plan(q, plan);
  stress::check_all(out);
  EXPECT_EQ(out.closed_pushes, 0);  // close happens after producers join
  EXPECT_GE(q.stats().max_depth, 1u);
}

TYPED_TEST(QueueStress, TinyCapacityMaximizesContention) {
  // capacity 1 forces every push through the full/parked path and every
  // hand-off through a wakeup — the worst case for lost-wakeup bugs.
  stress::Plan plan;
  plan.producers = 4;
  plan.consumers = 2;
  plan.items_per_producer = 500;
  plan.capacity = 1;
  plan.seed = 23;
  TypeParam q(plan.capacity);
  const stress::Outcome out = stress::run_plan(q, plan);
  stress::check_all(out);
  EXPECT_LE(q.stats().max_depth, plan.capacity);  // backpressure is exact
}

TYPED_TEST(QueueStress, MidStreamCloseNeverStrandsOrInventsItems) {
  // close() races in-flight pushes: whatever was accepted must come out,
  // whatever was rejected must not. Several delays vary where the close
  // lands relative to the producers' progress.
  for (const long long close_us : {0LL, 200LL, 2000LL}) {
    stress::Plan plan;
    plan.producers = 4;
    plan.consumers = 2;
    plan.items_per_producer = 5000;
    plan.capacity = 8;
    plan.seed = 31 + static_cast<unsigned>(close_us);
    plan.close_after = std::chrono::microseconds(close_us);
    TypeParam q(plan.capacity);
    const stress::Outcome out = stress::run_plan(q, plan);
    stress::check_all(out);
  }
}

TYPED_TEST(QueueStress, TimeoutStormConservesAcceptedItems) {
  // The executor's heartbeat pattern under heavy backpressure: short timed
  // slices against a tiny queue and slow consumers produce a storm of
  // Timeout outcomes; every slice that reported Ok must still be conserved,
  // and a timed-out item must never leak into the queue.
  stress::Plan plan;
  plan.producers = 4;
  plan.consumers = 1;
  plan.items_per_producer = 300;
  plan.capacity = 2;
  plan.seed = 47;
  plan.timed_push = true;
  plan.slice = std::chrono::microseconds(50);
  plan.max_jitter = std::chrono::microseconds(200);
  TypeParam q(plan.capacity);
  const stress::Outcome out = stress::run_plan(q, plan);
  stress::check_all(out);
}

TYPED_TEST(QueueStress, TimedPushesRacingMidStreamClose) {
  stress::Plan plan;
  plan.producers = 4;
  plan.consumers = 2;
  plan.items_per_producer = 5000;
  plan.capacity = 4;
  plan.seed = 59;
  plan.timed_push = true;
  plan.slice = std::chrono::microseconds(100);
  plan.close_after = std::chrono::microseconds(500);
  TypeParam q(plan.capacity);
  const stress::Outcome out = stress::run_plan(q, plan);
  stress::check_all(out);
}

TYPED_TEST(QueueStress, WatchdogDrainersRaceBlockingConsumers) {
  // Non-blocking try_pop bursts (the dead-copy inbox drain) interleaved
  // with blocking pop(): both kinds of streams must keep per-producer FIFO
  // and together account for every item exactly once.
  stress::Plan plan;
  plan.producers = 4;
  plan.consumers = 2;
  plan.items_per_producer = 2000;
  plan.capacity = 8;
  plan.seed = 67;
  plan.drainers = 2;
  TypeParam q(plan.capacity);
  const stress::Outcome out = stress::run_plan(q, plan);
  stress::check_all(out);
}

TYPED_TEST(QueueStress, NonPowerOfTwoCapacityBlockingPushes) {
  // Odd capacities with many blocking producers: every full -> not-full
  // edge must wake a parked push. The plan uses blocking pushes so a lost
  // wakeup is a hang, not a flake; jitter varies where pops land relative
  // to the parked producers.
  for (const std::size_t capacity : {3u, 5u, 6u, 7u}) {
    stress::Plan plan;
    plan.producers = 6;
    plan.consumers = 2;
    plan.items_per_producer = 1500;
    plan.capacity = capacity;
    plan.seed = 71 + static_cast<unsigned>(capacity);
    plan.max_jitter = std::chrono::microseconds(100);
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    TypeParam q(plan.capacity);
    const stress::Outcome out = stress::run_plan(q, plan);
    stress::check_all(out);
    EXPECT_LE(q.stats().max_depth, plan.capacity);  // backpressure is exact
  }
}

TYPED_TEST(QueueStress, RandomizedSchedules) {
  // Seeded sweep over plan shapes: producer/consumer counts, capacities,
  // jitter, timed vs blocking pushes, early and late closes. The point is
  // interleaving diversity, not volume — each plan is small.
  for (unsigned seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed * 2654435761u);
    stress::Plan plan;
    plan.seed = seed;
    plan.producers = 1 + static_cast<int>(rng() % 4);
    plan.consumers = 1 + static_cast<int>(rng() % 4);
    plan.items_per_producer = 200 + rng() % 800;
    plan.capacity = 1 + rng() % 16;
    plan.timed_push = (rng() % 2) == 0;
    plan.slice = std::chrono::microseconds(50 + rng() % 200);
    plan.drainers = static_cast<int>(rng() % 2);
    plan.max_jitter = std::chrono::microseconds(rng() % 150);
    if (rng() % 2 == 0) {
      plan.close_after = std::chrono::microseconds(rng() % 3000);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    TypeParam q(plan.capacity);
    const stress::Outcome out = stress::run_plan(q, plan);
    stress::check_all(out);
  }
}

}  // namespace
}  // namespace h4d::fs
