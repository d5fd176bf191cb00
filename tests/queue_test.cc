#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "queue/bounded_buffer.h"
#include "queue/registry.h"
#include "queue/sim_mutex.h"
#include "queue/tty.h"
#include "util/rng.h"

namespace realrate {
namespace {

TEST(BoundedBufferTest, PushPopFillAccounting) {
  BoundedBuffer q(0, "q", 100);
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.TryPush(40));
  EXPECT_EQ(q.fill(), 40);
  EXPECT_EQ(q.TryPop(25), 25);
  EXPECT_EQ(q.fill(), 15);
  EXPECT_EQ(q.total_pushed(), 40);
  EXPECT_EQ(q.total_popped(), 25);
}

TEST(BoundedBufferTest, PushBeyondCapacityFails) {
  BoundedBuffer q(0, "q", 100);
  EXPECT_TRUE(q.TryPush(100));
  EXPECT_TRUE(q.Full());
  EXPECT_FALSE(q.TryPush(1));
  EXPECT_EQ(q.fill(), 100);
}

TEST(BoundedBufferTest, PopFromEmptyReturnsZero) {
  BoundedBuffer q(0, "q", 100);
  EXPECT_EQ(q.TryPop(10), 0);
}

TEST(BoundedBufferTest, PopClampsToFill) {
  BoundedBuffer q(0, "q", 100);
  q.TryPush(30);
  EXPECT_EQ(q.TryPop(50), 30);
  EXPECT_TRUE(q.Empty());
}

TEST(BoundedBufferTest, PopExactAllOrNothing) {
  BoundedBuffer q(0, "q", 100);
  q.TryPush(30);
  EXPECT_FALSE(q.TryPopExact(31));
  EXPECT_EQ(q.fill(), 30);
  EXPECT_TRUE(q.TryPopExact(30));
  EXPECT_TRUE(q.Empty());
}

TEST(BoundedBufferTest, ChangeEpochStrictlyIncreasesUnderPushStorm) {
  // The controller's dirty-set sampler relies on every TryPush/TryPop/TryPopExact
  // bumping change_epoch — including the FAILED ones, which mutate a saturation
  // counter the controller observes. An open-loop push storm against a full queue
  // is exactly the case where a "no fill change, skip the bump" shortcut would
  // freeze the epoch and make the sampler skip a saturating queue.
  BoundedBuffer q(0, "q", 64);
  uint64_t last = q.change_epoch();
  for (int i = 0; i < 200; ++i) {
    q.TryPush(16);  // Fails once full; the epoch must advance regardless.
    const uint64_t now = q.change_epoch();
    EXPECT_GT(now, last) << "push #" << i;
    EXPECT_EQ(now, last + 1) << "push #" << i;  // Exactly one bump per op.
    last = now;
  }
  EXPECT_TRUE(q.Full());
  EXPECT_GT(q.full_hits(), 0);
  // Failed pops and failed exact pops on the way back down bump it too.
  EXPECT_EQ(q.TryPop(16), 16);
  EXPECT_EQ(q.change_epoch(), last + 1);
  last = q.change_epoch();
  EXPECT_FALSE(q.TryPopExact(64));  // More than the remaining fill: fails.
  EXPECT_EQ(q.change_epoch(), last + 1);
  last = q.change_epoch();
  while (!q.Empty()) {
    q.TryPop(16);
    EXPECT_EQ(q.change_epoch(), last + 1);
    last = q.change_epoch();
  }
  q.TryPop(16);  // Empty: fails, still bumps.
  EXPECT_EQ(q.change_epoch(), last + 1);
}

TEST(BoundedBufferTest, PressureMetricMatchesFigure3) {
  BoundedBuffer q(0, "q", 100);
  EXPECT_DOUBLE_EQ(q.PressureMetric(), -0.5);  // Empty.
  q.TryPush(50);
  EXPECT_DOUBLE_EQ(q.PressureMetric(), 0.0);  // Half-full: the set point.
  q.TryPush(50);
  EXPECT_DOUBLE_EQ(q.PressureMetric(), 0.5);  // Full.
}

TEST(BoundedBufferTest, PushWakesWaitingConsumers) {
  BoundedBuffer q(0, "q", 100);
  std::vector<ThreadId> woken;
  q.SetWakeFn([&](ThreadId t) { woken.push_back(t); });
  q.WaitForData(7);
  q.WaitForData(8);
  q.TryPush(10);
  EXPECT_EQ(woken, (std::vector<ThreadId>{7, 8}));
  EXPECT_TRUE(q.waiting_consumers().empty());
}

TEST(BoundedBufferTest, PopWakesWaitingProducers) {
  BoundedBuffer q(0, "q", 10);
  q.TryPush(10);
  std::vector<ThreadId> woken;
  q.SetWakeFn([&](ThreadId t) { woken.push_back(t); });
  q.WaitForSpace(3);
  q.TryPop(5);
  EXPECT_EQ(woken, (std::vector<ThreadId>{3}));
}

TEST(BoundedBufferTest, FailedPushDoesNotWakeAnyone) {
  BoundedBuffer q(0, "q", 10);
  q.TryPush(10);
  int wakes = 0;
  q.SetWakeFn([&](ThreadId) { ++wakes; });
  q.WaitForData(1);
  EXPECT_FALSE(q.TryPush(5));
  EXPECT_EQ(wakes, 0);
}

TEST(BoundedBufferTest, WakeKeepsTheWaiterListsBlock) {
  // A wake hands the list's storage back when no callback re-registered, so the next
  // wait reuses it: the steady block/wake cycle allocates nothing.
  BoundedBuffer q(0, "q", 100);
  q.SetWakeFn([](ThreadId) {});
  q.WaitForData(1);
  q.WaitForData(2);
  const ThreadId* block = q.waiting_consumers().data();
  q.TryPush(10);
  EXPECT_TRUE(q.waiting_consumers().empty());
  q.WaitForData(3);
  EXPECT_EQ(q.waiting_consumers().data(), block);
}

TEST(BoundedBufferTest, WaiterReRegisteringInsideTheWakeStaysRegistered) {
  BoundedBuffer q(0, "q", 100);
  std::vector<ThreadId> woken;
  q.SetWakeFn([&](ThreadId t) {
    woken.push_back(t);
    if (t == 8) {
      q.WaitForData(t);  // Wants more data than this push brought.
    }
  });
  q.WaitForData(7);
  q.WaitForData(8);
  q.TryPush(10);
  EXPECT_EQ(woken, (std::vector<ThreadId>{7, 8}));
  EXPECT_EQ(q.waiting_consumers(), (std::vector<ThreadId>{8}));
  q.TryPush(10);  // The re-registered waiter is woken by the next push.
  EXPECT_EQ(woken, (std::vector<ThreadId>{7, 8, 8}));
  EXPECT_EQ(q.waiting_consumers(), (std::vector<ThreadId>{8}));
}

TEST(BoundedBufferTest, NestedWakeOnTheSameBufferIsSafe) {
  // The callback re-registers a waiter and pushes again, so WakeAll re-enters on the
  // list it is draining: every waiter is woken once per wake that found it, in order.
  BoundedBuffer q(0, "q", 100);
  std::vector<ThreadId> woken;
  int nested = 0;
  q.SetWakeFn([&](ThreadId t) {
    woken.push_back(t);
    if (t == 1 && nested++ == 0) {
      q.WaitForData(9);
      q.TryPush(1);  // Nested wake: drains {9} while {1, 2} is being woken.
      q.WaitForData(10);
    }
  });
  q.WaitForData(1);
  q.WaitForData(2);
  q.TryPush(1);
  EXPECT_EQ(woken, (std::vector<ThreadId>{1, 9, 2}));
  EXPECT_EQ(q.waiting_consumers(), (std::vector<ThreadId>{10}));
  EXPECT_EQ(q.fill(), 2);
  q.TryPush(1);
  EXPECT_EQ(woken, (std::vector<ThreadId>{1, 9, 2, 10}));
  EXPECT_TRUE(q.waiting_consumers().empty());
}

// ---------------------------------------------------------------------------
// Edge cases: zero-capacity queues, exactly-full writes, oversized items. The
// contracts abort in every build type (util/assert.h), so violations are death
// tests rather than status returns.
// ---------------------------------------------------------------------------

TEST(BoundedBufferEdgeTest, ZeroCapacityConstructionDies) {
  EXPECT_DEATH(BoundedBuffer(0, "q", 0), "Precondition");
  EXPECT_DEATH(BoundedBuffer(0, "q", -5), "Precondition");
}

TEST(BoundedBufferEdgeTest, NonPositiveOperationsDie) {
  BoundedBuffer q(0, "q", 100);
  EXPECT_DEATH(q.TryPush(0), "Precondition");
  EXPECT_DEATH(q.TryPush(-1), "Precondition");
  EXPECT_DEATH(q.TryPop(0), "Precondition");
  EXPECT_DEATH(q.TryPopExact(-3), "Precondition");
}

TEST(BoundedBufferEdgeTest, PushLargerThanWholeQueueDies) {
  // An item that exceeds the queue's total capacity could never fit; accepting the
  // call would leave a producer blocked on WaitForSpace forever (silent livelock).
  BoundedBuffer q(0, "q", 100);
  EXPECT_DEATH(q.TryPush(101), "Precondition");
}

TEST(BoundedBufferEdgeTest, ExactPopLargerThanWholeQueueDies) {
  // The consumer-side mirror: an exact request above capacity can never be
  // satisfied, so a consumer would block on WaitForData forever.
  BoundedBuffer q(0, "q", 100);
  q.TryPush(100);
  EXPECT_DEATH(q.TryPopExact(101), "Precondition");
}

TEST(BoundedBufferEdgeTest, ExactlyFullWriteSucceeds) {
  BoundedBuffer q(0, "q", 100);
  ASSERT_TRUE(q.TryPush(60));
  // A push of precisely the remaining space is the boundary case: it must succeed
  // and leave the queue exactly full, not be rejected as an overflow.
  EXPECT_TRUE(q.TryPush(40));
  EXPECT_TRUE(q.Full());
  EXPECT_EQ(q.fill(), 100);
  EXPECT_DOUBLE_EQ(q.FillFraction(), 1.0);
  EXPECT_DOUBLE_EQ(q.PressureMetric(), 0.5);
  EXPECT_EQ(q.full_hits(), 0);  // The exact fit is not a saturation event...
  EXPECT_FALSE(q.TryPush(1));
  EXPECT_EQ(q.full_hits(), 1);  // ...but the next byte is.
}

TEST(BoundedBufferEdgeTest, WholeQueueSizedItemRoundTrips) {
  BoundedBuffer q(0, "q", 100);
  EXPECT_TRUE(q.TryPush(100));  // bytes == capacity: the largest legal item.
  EXPECT_TRUE(q.Full());
  EXPECT_TRUE(q.TryPopExact(100));
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.TryPush(100));  // And it fits again after draining.
}

TEST(BoundedBufferEdgeTest, ExactFillPopBoundary) {
  BoundedBuffer q(0, "q", 100);
  q.TryPush(30);
  EXPECT_TRUE(q.TryPopExact(30));  // bytes == fill: boundary success.
  EXPECT_TRUE(q.Empty());
  q.TryPush(30);
  EXPECT_EQ(q.TryPop(30), 30);  // Same boundary through the clamping pop.
  EXPECT_TRUE(q.Empty());
}

TEST(BoundedBufferEdgeTest, ExactlyFullWriteWakesWaitingConsumers) {
  BoundedBuffer q(0, "q", 100);
  std::vector<ThreadId> woken;
  q.SetWakeFn([&](ThreadId t) { woken.push_back(t); });
  q.TryPush(60);
  q.WaitForData(9);
  EXPECT_TRUE(q.TryPush(40));  // The filling write must still wake consumers.
  EXPECT_EQ(woken, (std::vector<ThreadId>{9}));
}

TEST(QueueRegistryTest, RegisterAndQuery) {
  QueueRegistry reg;
  BoundedBuffer* q = reg.CreateQueue("pipe", 1000);
  EXPECT_EQ(reg.queue_count(), 1u);
  EXPECT_EQ(reg.Find(q->id()), q);
  EXPECT_EQ(reg.Find(99), nullptr);

  reg.Register(q, 1, QueueRole::kProducer);
  reg.Register(q, 2, QueueRole::kConsumer);
  EXPECT_TRUE(reg.HasMetrics(1));
  EXPECT_TRUE(reg.HasMetrics(2));
  EXPECT_FALSE(reg.HasMetrics(3));

  const auto links = reg.LinkagesFor(1);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].role, QueueRole::kProducer);
  EXPECT_EQ(links[0].queue, q);
}

TEST(QueueRegistryTest, PipelineStageHasTwoLinkages) {
  QueueRegistry reg;
  BoundedBuffer* in = reg.CreateQueue("in", 100);
  BoundedBuffer* out = reg.CreateQueue("out", 100);
  reg.Register(in, 5, QueueRole::kConsumer);
  reg.Register(out, 5, QueueRole::kProducer);
  EXPECT_EQ(reg.LinkagesFor(5).size(), 2u);
}

TEST(QueueRegistryTest, UnregisterRemovesAllLinkages) {
  QueueRegistry reg;
  BoundedBuffer* q = reg.CreateQueue("q", 100);
  reg.Register(q, 1, QueueRole::kProducer);
  reg.Register(q, 1, QueueRole::kConsumer);
  reg.Unregister(1);
  EXPECT_FALSE(reg.HasMetrics(1));
}

TEST(QueueRegistryTest, AggregateFillTotalsMatchAFreshSweep) {
  // The registry's O(1) fill fraction reads running integer totals; after random
  // pushes, pops, exact pops and a staked round they equal a sweep over the queues.
  QueueRegistry registry;
  EXPECT_EQ(registry.AggregateFillFraction(), 0.0);  // No queues yet.
  auto sweep = [&registry] {
    int64_t fill = 0;
    int64_t capacity = 0;
    for (const BoundedBuffer* q : registry.AllQueues()) {
      fill += q->fill();
      capacity += q->capacity();
    }
    return static_cast<double>(fill) / static_cast<double>(capacity);
  };
  Rng rng(25);
  std::vector<BoundedBuffer*> queues;
  for (int i = 0; i < 6; ++i) {
    queues.push_back(registry.CreateQueue("q" + std::to_string(i), 50 + 37 * i));
  }
  BoundedBuffer standalone(99, "standalone", 40);  // Not registered: never counted.
  for (int op = 0; op < 5'000; ++op) {
    BoundedBuffer* q = queues[rng.NextBounded(queues.size())];
    const auto bytes =
        static_cast<int64_t>(1 + rng.NextBounded(static_cast<uint64_t>(q->capacity())));
    switch (rng.NextBounded(3)) {
      case 0:
        q->TryPush(bytes);
        break;
      case 1:
        q->TryPop(bytes);
        break;
      default:
        q->TryPopExact(bytes);
        break;
    }
    standalone.TryPush(1 + static_cast<int64_t>(rng.NextBounded(40)));
    standalone.TryPop(1 + static_cast<int64_t>(rng.NextBounded(40)));
    ASSERT_EQ(registry.AggregateFillFraction(), sweep()) << "op " << op;
  }
  // A staked round: ops touch only the stakes until SettleRoundStakes applies them.
  BoundedBuffer* pushed = queues[0];
  BoundedBuffer* popped = queues[1];
  while (pushed->fill() > pushed->capacity() / 2) {
    pushed->TryPop(1);
  }
  if (popped->fill() < 10) {
    popped->TryPush(10);
  }
  BoundedBuffer::RoundStake push_stake{.budget_bytes = 8};
  BoundedBuffer::RoundStake pop_stake{.budget_bytes = 10};
  pushed->InstallRoundStakes(&push_stake, nullptr);
  popped->InstallRoundStakes(nullptr, &pop_stake);
  const double before = registry.AggregateFillFraction();
  EXPECT_TRUE(pushed->TryPush(5));
  EXPECT_TRUE(popped->TryPopExact(7));
  EXPECT_EQ(popped->TryPop(3), 3);
  EXPECT_EQ(registry.AggregateFillFraction(), before);  // Staged, not applied.
  pushed->SettleRoundStakes();
  popped->SettleRoundStakes();
  EXPECT_EQ(registry.AggregateFillFraction(), sweep());
  EXPECT_NE(registry.AggregateFillFraction(), before);
}

TEST(SimMutexTest, TryLockAndUnlock) {
  SimMutex m("m");
  EXPECT_FALSE(m.IsHeld());
  EXPECT_TRUE(m.TryLock(1));
  EXPECT_TRUE(m.IsHeld());
  EXPECT_EQ(m.owner(), 1);
  EXPECT_FALSE(m.TryLock(2));
  m.Unlock(1);
  EXPECT_FALSE(m.IsHeld());
}

TEST(SimMutexTest, FifoHandoffWakesNextWaiter) {
  SimMutex m("m");
  std::vector<ThreadId> woken;
  m.SetWakeFn([&](ThreadId t) { woken.push_back(t); });
  ASSERT_TRUE(m.TryLock(1));
  ASSERT_FALSE(m.TryLock(2));
  m.WaitFor(2);
  ASSERT_FALSE(m.TryLock(3));
  m.WaitFor(3);
  EXPECT_EQ(m.waiter_count(), 2u);

  m.Unlock(1);
  EXPECT_EQ(m.owner(), 2);  // Direct handoff, FIFO order.
  EXPECT_EQ(woken, (std::vector<ThreadId>{2}));
  m.Unlock(2);
  EXPECT_EQ(m.owner(), 3);
  EXPECT_EQ(m.waiter_count(), 0u);
}

TEST(TtyPortTest, InputLatencyRecorded) {
  TtyPort tty("console");
  const TimePoint t0 = TimePoint::Origin() + Duration::Millis(100);
  const TimePoint t1 = TimePoint::Origin() + Duration::Millis(130);
  tty.PushInput(t0);
  EXPECT_TRUE(tty.HasInput());
  EXPECT_TRUE(tty.PopInput(t1));
  ASSERT_EQ(tty.latencies().size(), 1u);
  EXPECT_NEAR(tty.latencies()[0], 0.030, 1e-9);
  EXPECT_FALSE(tty.PopInput(t1));
}

TEST(TtyPortTest, PushWakesWaiter) {
  TtyPort tty("console");
  std::vector<ThreadId> woken;
  tty.SetWakeFn([&](ThreadId t) { woken.push_back(t); });
  tty.WaitForInput(4);
  tty.PushInput(TimePoint::Origin());
  EXPECT_EQ(woken, (std::vector<ThreadId>{4}));
  EXPECT_EQ(tty.total_events(), 1);
}

}  // namespace
}  // namespace realrate
