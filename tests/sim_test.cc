#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace realrate {
namespace {

TimePoint At(int64_t ms) { return TimePoint::Origin() + Duration::Millis(ms); }

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(At(30), [&] { order.push_back(3); });
  q.Push(At(10), [&] { order.push_back(1); });
  q.Push(At(20), [&] { order.push_back(2); });
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Push(At(10), [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.Push(At(10), [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelUnknownIdIsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(999));
}

TEST(EventQueueTest, PeekTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.Push(At(5), [] {});
  q.Push(At(10), [] {});
  q.Cancel(early);
  EXPECT_EQ(q.PeekTime(), At(10));
  EXPECT_EQ(q.PendingCount(), 1u);
}

TEST(EventQueueTest, CancelOfFiredIdIsRejected) {
  // Regression: cancelling an already-fired id used to insert a tombstone that was
  // never reclaimed (the id can never reach the heap top again). The contract says
  // such a cancel is a no-op returning false — repeatedly, not just the first time.
  EventQueue q;
  const EventId id = q.Push(At(1), [] {});
  q.Pop().fn();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(q.Cancel(id));
  }
  // The queue is structurally empty again: a fresh push/pop cycle works and nothing
  // lingers.
  EXPECT_TRUE(q.Empty());
  q.Push(At(2), [] {});
  EXPECT_EQ(q.PendingCount(), 1u);
}

TEST(EventQueueTest, DoubleCancelReturnsFalseSecondTime) {
  EventQueue q;
  const EventId id = q.Push(At(1), [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, PendingCountExcludesCancelledBelowHeapTop) {
  // Regression: PendingCount used to skim only the heap top, so a cancelled entry
  // buried under a live earlier event was still counted.
  EventQueue q;
  q.Push(At(10), [] {});
  const EventId buried = q.Push(At(20), [] {});
  const EventId deeper = q.Push(At(30), [] {});
  q.Cancel(buried);
  EXPECT_EQ(q.PendingCount(), 2u);
  q.Cancel(deeper);
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_EQ(q.PeekTime(), At(10));
}

TEST(EventQueueTest, ReschedMovesAnEventInOneCall) {
  // The decrease-key-free resched path: retire the old entry by id, push a fresh
  // one — moving a periodic clock later or earlier without a heap rebuild.
  EventQueue q;
  std::vector<int> order;
  q.Push(At(10), [&] { order.push_back(10); });
  q.Push(At(15), [&] { order.push_back(15); });
  EventId clock = q.Resched(kInvalidEventId, At(20), [&] { order.push_back(20); });
  clock = q.Resched(clock, At(5), [&] { order.push_back(5); });
  EXPECT_EQ(q.PendingCount(), 3u);
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{5, 10, 15}));
}

TEST(EventQueueTest, ReschedOfFiredIdStillSchedules) {
  // The common race: the periodic clock already fired when its owner reschedules it.
  EventQueue q;
  bool first = false;
  bool second = false;
  const EventId id = q.Push(At(1), [&] { first = true; });
  q.Pop().fn();
  q.Resched(id, At(2), [&] { second = true; });
  EXPECT_EQ(q.PendingCount(), 1u);
  q.Pop().fn();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
}

TEST(EventQueueTest, StaleIdIsRejectedAfterItsSlotIsReused) {
  // A fired or cancelled event's slot is recycled by the next push; the old id must
  // not reach the new occupant.
  EventQueue q;
  std::vector<int> order;
  const EventId fired = q.Push(At(1), [&] { order.push_back(1); });
  q.Pop().fn();
  const EventId cancelled = q.Push(At(2), [&] { order.push_back(2); });
  EXPECT_EQ(q.SlotCapacity(), 1u);  // Reused the fired event's slot.
  EXPECT_TRUE(q.Cancel(cancelled));
  const EventId live = q.Push(At(3), [&] { order.push_back(3); });
  EXPECT_EQ(q.SlotCapacity(), 1u);  // And the cancelled one's.
  EXPECT_NE(live, fired);
  EXPECT_NE(live, cancelled);
  EXPECT_FALSE(q.Cancel(fired));
  EXPECT_FALSE(q.Cancel(cancelled));
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_EQ(q.PeekId(), live);
  q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, EqualTimesStayFifoAcrossSlotReuse) {
  // Freed slots are reused LIFO, so slot order stops matching insertion order; the
  // pop order must still be insertion order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.Push(At(10), [&order, i] { order.push_back(i); }));
  }
  for (const int i : {1, 4, 6}) {
    EXPECT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
  }
  for (int i = 8; i < 11; ++i) {
    q.Push(At(10), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.SlotCapacity(), 8u);
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5, 7, 8, 9, 10}));
}

TEST(EventQueueTest, MillionOpChurnMatchesReferenceAndBoundsSlotPool) {
  // Random push/cancel/pop churn against an ordered-set reference keyed on
  // (time, insertion index): every pop returns the reference's head, PendingCount
  // is exact after every operation, and the slot pool never exceeds the peak
  // pending count.
  EventQueue q;
  Rng rng(2024);
  std::set<std::pair<int64_t, uint64_t>> reference;  // {when_ns, insertion index}.
  std::vector<EventId> id_of;                          // Insertion index -> id.
  std::vector<int64_t> when_of;                        // Insertion index -> when_ns.
  std::vector<uint64_t> live;                          // Insertion indices, unordered.
  std::vector<size_t> live_pos;                        // Insertion index -> index in live.
  int64_t now = 0;
  size_t peak = 0;
  uint64_t fired = 0;
  auto forget = [&](uint64_t index) {
    const size_t pos = live_pos[index];
    live[pos] = live.back();
    live_pos[live[pos]] = pos;
    live.pop_back();
  };
  for (int op = 0; op < 1'000'000; ++op) {
    const uint64_t dice = rng.NextBounded(10);
    if (dice < 5 || live.empty()) {
      const int64_t when = now + static_cast<int64_t>(rng.NextBounded(50));
      const uint64_t index = id_of.size();
      id_of.push_back(q.Push(TimePoint::FromNanos(when), [&fired] { ++fired; }));
      when_of.push_back(when);
      reference.emplace(when, index);
      live_pos.push_back(live.size());
      live.push_back(index);
    } else if (dice < 7) {
      const uint64_t index = live[rng.NextBounded(live.size())];
      ASSERT_TRUE(q.Cancel(id_of[index]));
      ASSERT_FALSE(q.Cancel(id_of[index]));
      reference.erase({when_of[index], index});
      forget(index);
    } else {
      const auto head = *reference.begin();
      auto popped = q.Pop();
      ASSERT_EQ(popped.when.nanos(), head.first);
      ASSERT_EQ(popped.id, id_of[head.second]);
      popped.fn();
      now = head.first;
      reference.erase(reference.begin());
      forget(head.second);
      ASSERT_FALSE(q.Cancel(id_of[head.second]));
    }
    peak = std::max(peak, q.PendingCount());
    ASSERT_EQ(q.PendingCount(), reference.size());
    ASSERT_LE(q.SlotCapacity(), peak);
  }
  EXPECT_GT(fired, 100'000u);
  EXPECT_GT(peak, 10u);
}

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<int64_t> seen;
  sim.ScheduleAt(At(5), [&] { seen.push_back(sim.Now().nanos()); });
  sim.ScheduleAt(At(15), [&] { seen.push_back(sim.Now().nanos()); });
  sim.RunUntil(At(20));
  EXPECT_EQ(sim.Now(), At(20));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], At(5).nanos());
  EXPECT_EQ(seen[1], At(15).nanos());
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  bool late_ran = false;
  sim.ScheduleAt(At(50), [&] { late_ran = true; });
  sim.RunUntil(At(40));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(At(60));
  EXPECT_TRUE(late_ran);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  int fires = 0;
  std::function<void()> chain = [&] {
    if (++fires < 5) {
      sim.ScheduleAfter(Duration::Millis(1), chain);
    }
  };
  sim.ScheduleAfter(Duration::Millis(1), chain);
  sim.RunFor(Duration::Millis(10));
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorTest, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleAfter(Duration::Millis(1), [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, PopExpectedRejectsStaleId) {
  Simulator sim;
  bool ran = false;
  const EventId stale = sim.ScheduleAt(At(5), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(stale));
  const EventId fresh = sim.ScheduleAt(At(5), [&] { ran = true; });  // Same slot.
  EXPECT_FALSE(sim.PopExpected(stale, At(5)));
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.PopExpected(fresh, At(6)));
  EXPECT_TRUE(sim.PopExpected(fresh, At(5)));
  EXPECT_FALSE(sim.PopExpected(fresh, At(5)));
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.Now(), At(5));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(ran);
}

// ---------------------------------------------------------------------------
// Cursors: owner-held streams merged into the event order by (when, seq).

TEST(SimulatorCursorTest, EqualTimeTiesGoByArmOrder) {
  Simulator sim;
  std::vector<std::string> order;
  const Simulator::CursorId cursor = sim.AddCursor([&] { order.push_back("cursor"); });
  sim.ScheduleAt(At(5), [&] { order.push_back("before"); });
  sim.Arm(cursor, At(5));
  sim.ScheduleAt(At(5), [&] { order.push_back("after"); });
  sim.RunUntil(At(5));
  EXPECT_EQ(order, (std::vector<std::string>{"before", "cursor", "after"}));
  EXPECT_EQ(sim.events_processed(), 2u);  // A delivery is not an event.
  EXPECT_EQ(sim.Now(), At(5));
}

TEST(SimulatorCursorTest, DeliveriesRunWhereScheduledEventsWould) {
  // The same interleave built twice: once with the stream as a cursor, once as a
  // chain of ScheduleAt events (each delivery schedules the next). The orders
  // must match, since Arm draws its seq from the counter ScheduleAt uses.
  const std::vector<int64_t> stream = {1, 3, 3, 4, 8};
  std::vector<std::string> via_cursor;
  std::vector<std::string> via_events;
  // Heap events at and between the arrivals; each schedules a same-time
  // follow-up, so seqs keep being drawn mid-run.
  auto ticks = [](Simulator& sim, std::vector<std::string>& order) {
    for (int64_t t : {1, 2, 3, 4, 6, 8}) {
      sim.ScheduleAt(At(t), [&order, &sim, t] {
        order.push_back("tick" + std::to_string(t));
        sim.ScheduleAfter(Duration::Zero(), [&order, t] {
          order.push_back("echo" + std::to_string(t));
        });
      });
    }
  };
  {
    Simulator sim;
    size_t next = 0;
    Simulator::CursorId cursor = 0;
    cursor = sim.AddCursor([&] {
      via_cursor.push_back("arrival" + std::to_string(stream[next]));
      if (++next < stream.size()) {
        sim.Arm(cursor, At(stream[next]));
      }
    });
    sim.Arm(cursor, At(stream[0]));
    ticks(sim, via_cursor);
    sim.RunUntil(At(10));
  }
  {
    Simulator sim;
    size_t next = 0;
    std::function<void()> deliver = [&] {
      via_events.push_back("arrival" + std::to_string(stream[next]));
      if (++next < stream.size()) {
        sim.ScheduleAt(At(stream[next]), deliver);
      }
    };
    sim.ScheduleAt(At(stream[0]), deliver);
    ticks(sim, via_events);
    sim.RunUntil(At(10));
  }
  EXPECT_EQ(via_cursor, via_events);
  EXPECT_EQ(via_cursor.size(), stream.size() + 12);
}

TEST(SimulatorCursorTest, PopExpectedRefusesToPassAnEarlierCursor) {
  Simulator sim;
  int deliveries = 0;
  const Simulator::CursorId cursor = sim.AddCursor([&] { ++deliveries; });
  // An earlier time: the tick cannot be claimed past the armed cursor.
  sim.Arm(cursor, At(4));
  const EventId tick = sim.ScheduleAt(At(5), [] {});
  EXPECT_FALSE(sim.PopExpected(tick, At(5)));
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(deliveries, 1);
  EXPECT_TRUE(sim.PopExpected(tick, At(5)));
  // The same time, armed before the tick was pushed: the cursor still comes first.
  sim.Arm(cursor, At(7));
  const EventId tied_after = sim.ScheduleAt(At(7), [] {});
  EXPECT_FALSE(sim.PopExpected(tied_after, At(7)));
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(deliveries, 2);
  EXPECT_TRUE(sim.PopExpected(tied_after, At(7)));
  // The same time, armed after the tick was pushed: the tick comes first.
  const EventId tied_before = sim.ScheduleAt(At(8), [] {});
  sim.Arm(cursor, At(8));
  EXPECT_TRUE(sim.PopExpected(tied_before, At(8)));
  EXPECT_EQ(deliveries, 2);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(deliveries, 3);
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_EQ(sim.Now(), At(8));
}

TEST(SimulatorCursorTest, TwoCursorsInterleaveByWhenThenSeq) {
  Simulator sim;
  std::vector<std::string> order;
  Simulator::CursorId a = 0;
  Simulator::CursorId b = 0;
  size_t a_next = 0;
  size_t b_next = 0;
  const std::vector<int64_t> a_times = {1, 3, 3, 7};
  const std::vector<int64_t> b_times = {2, 3, 5};
  a = sim.AddCursor([&] {
    order.push_back("a" + std::to_string(a_times[a_next]));
    if (++a_next < a_times.size()) {
      sim.Arm(a, At(a_times[a_next]));
    }
  });
  b = sim.AddCursor([&] {
    order.push_back("b" + std::to_string(b_times[b_next]));
    if (++b_next < b_times.size()) {
      sim.Arm(b, At(b_times[b_next]));
    }
  });
  sim.Arm(b, At(b_times[0]));
  sim.Arm(a, At(a_times[0]));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunUntil(At(10));
  // At 3: a re-armed for 3 at its 1 ms delivery and b at its 2 ms one, so a's
  // first 3 goes first; a's second 3 is armed only when that one is delivered,
  // after b's, so b3 precedes it.
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b2", "a3", "b3", "a3", "b5", "a7"}));
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorCursorTest, CursorPastTheRunUntilLimitDoesNotFire) {
  Simulator sim;
  int deliveries = 0;
  const Simulator::CursorId cursor = sim.AddCursor([&] { ++deliveries; });
  sim.Arm(cursor, At(50));
  sim.RunUntil(At(40));
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(sim.Now(), At(40));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(At(50));
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(sim.Now(), At(50));
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorCursorTest, PendingEventsCountsArmedCursors) {
  Simulator sim;
  const Simulator::CursorId a = sim.AddCursor([] {});
  const Simulator::CursorId b = sim.AddCursor([] {});
  sim.ScheduleAt(At(1), [] {});
  EXPECT_EQ(sim.pending_events(), 1u);  // Registered but disarmed: not pending.
  sim.Arm(a, At(2));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Arm(b, At(3));
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RemoveCursor(b);  // A removed cursor never delivers.
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.Now(), At(2));
}

TEST(SimulatorCursorTest, ArmInThePastDies) {
  Simulator sim;
  const Simulator::CursorId cursor = sim.AddCursor([] {});
  sim.RunUntil(At(10));
  EXPECT_DEATH(sim.Arm(cursor, At(9)), "Precondition failed");
  sim.Arm(cursor, At(10));  // Now is not the past.
  EXPECT_DEATH(sim.Arm(cursor, At(11)), "Precondition failed");  // Already armed.
}

TEST(CpuTest, CycleDurationRoundTrip) {
  Cpu cpu(CpuConfig{.clock_hz = 400e6});
  EXPECT_EQ(cpu.DurationToCycles(Duration::Millis(1)), 400'000);
  EXPECT_EQ(cpu.CyclesToDuration(400'000), Duration::Millis(1));
}

TEST(CpuTest, DispatchCostGrowsWithFrequency) {
  Cpu cpu(CpuConfig{});
  EXPECT_LT(cpu.DispatchCostAt(100), cpu.DispatchCostAt(1000));
  EXPECT_LT(cpu.DispatchCostAt(1000), cpu.DispatchCostAt(10000));
}

TEST(CpuTest, ControllerCostIsLinearInThreads) {
  Cpu cpu(CpuConfig{});
  const Cycles c0 = cpu.ControllerCost(0);
  const Cycles c1 = cpu.ControllerCost(1);
  const Cycles c40 = cpu.ControllerCost(40);
  EXPECT_EQ(c40 - c0, 40 * (c1 - c0));
  EXPECT_EQ(c0, cpu.config().controller_fixed_cycles);
}

TEST(CpuTest, ChargeAccumulatesPerCategory) {
  Cpu cpu(CpuConfig{});
  cpu.Charge(CpuUse::kUser, 100);
  cpu.Charge(CpuUse::kUser, 50);
  cpu.Charge(CpuUse::kDispatch, 10);
  EXPECT_EQ(cpu.Used(CpuUse::kUser), 150);
  EXPECT_EQ(cpu.Used(CpuUse::kDispatch), 10);
  EXPECT_EQ(cpu.TotalUsed(), 160);
  cpu.ResetAccounting();
  EXPECT_EQ(cpu.TotalUsed(), 0);
}

TEST(TraceTest, CountsByKindAndThread) {
  TraceRecorder trace;
  trace.SetEnabled(true);
  trace.Record(At(1), TraceKind::kDispatch, 0);
  trace.Record(At(2), TraceKind::kDispatch, 1);
  trace.Record(At(3), TraceKind::kBlock, 0);
  EXPECT_EQ(trace.Count(TraceKind::kDispatch), 2);
  EXPECT_EQ(trace.Count(TraceKind::kDispatch, 0), 1);
  EXPECT_EQ(trace.Count(TraceKind::kBlock, 1), 0);
}

TEST(TraceTest, DisabledRecorderStaysEmpty) {
  TraceRecorder trace;
  trace.Record(At(1), TraceKind::kDispatch, 0);
  EXPECT_TRUE(trace.events().empty());
}

TEST(TraceTest, HashDistinguishesSchedules) {
  TraceRecorder a;
  TraceRecorder b;
  a.SetEnabled(true);
  b.SetEnabled(true);
  a.Record(At(1), TraceKind::kDispatch, 0, 100);
  b.Record(At(1), TraceKind::kDispatch, 0, 101);
  EXPECT_NE(a.Hash(), b.Hash());
  TraceRecorder c;
  c.SetEnabled(true);
  c.Record(At(1), TraceKind::kDispatch, 0, 100);
  EXPECT_EQ(a.Hash(), c.Hash());
}

TEST(TraceTest, RunningHashMatchesByteScan) {
  // The running fold skips each field's high zero bytes with one multiply; the
  // scan is the literal byte loop. Fields at 0, -1, the int64 extremes, and values
  // with zero bytes in the middle must fold identically.
  const int64_t kValues[] = {0,
                             -1,
                             1,
                             0xff,
                             0x100,
                             INT64_MIN,
                             INT64_MAX,
                             0x0100000000000001,
                             0x0000010000000100,
                             0x00ff0000ff000000,
                             -0x0100000000000000};
  TraceRecorder trace;
  trace.SetEnabled(true);
  int64_t t = 0;
  for (int64_t a : kValues) {
    for (int64_t b : kValues) {
      trace.Record(TimePoint::Origin() + Duration::Nanos(t), TraceKind::kDispatch, 0, a, b);
      t += 0x0100000000;  // Timestamps with low zero bytes too.
    }
    trace.Record(TimePoint::Origin() + Duration::Nanos(t), TraceKind::kMigrate,
                 static_cast<ThreadId>(a), a, ~a);
    trace.Record(TimePoint::Origin() + Duration::Nanos(t), TraceKind::kWake, kInvalidThreadId,
                 -1);
    EXPECT_EQ(trace.Hash(), trace.HashScan()) << "after value " << a;
  }
  EXPECT_EQ(trace.Hash(), trace.HashScan());
}

}  // namespace
}  // namespace realrate
