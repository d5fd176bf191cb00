// Machine: dispatch loop, blocking/waking through queues, sleep timers, overhead
// charging, context-switch accounting.
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "queue/bounded_buffer.h"
#include "queue/registry.h"
#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "task/registry.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/rate_schedule.h"

namespace realrate {
namespace {

struct MachineRig {
  Simulator sim;
  ThreadRegistry threads;
  RbsScheduler rbs{sim.cpu()};
  QueueRegistry queues;
  std::unique_ptr<Machine> machine;

  explicit MachineRig(bool charge_overheads = false) {
    machine = std::make_unique<Machine>(
        sim, rbs, threads,
        MachineConfig{.dispatch_interval = Duration::Millis(1),
                      .charge_overheads = charge_overheads});
  }
};

TEST(MachineTest, TicksAtDispatchInterval) {
  // Machine::RunFor (not raw Simulator::RunFor) so idle fast-forward settles its
  // catch-up before the counters are read.
  MachineRig rig;
  rig.machine->Start();
  rig.machine->RunFor(Duration::Millis(100));
  EXPECT_EQ(rig.machine->ticks(), 100);
}

TEST(MachineTest, IdleCpuChargedWhenNothingRunnable) {
  MachineRig rig;
  rig.machine->Start();
  rig.machine->RunFor(Duration::Millis(10));
  EXPECT_EQ(rig.sim.cpu().Used(CpuUse::kIdle), rig.sim.cpu().DurationToCycles(Duration::Millis(10)));
  EXPECT_EQ(rig.sim.cpu().Used(CpuUse::kUser), 0);
}

TEST(MachineTest, HogConsumesFullCapacityWithoutOverheads) {
  MachineRig rig;
  SimThread* hog = rig.threads.Create("hog", std::make_unique<CpuHogWork>());
  rig.machine->Attach(hog);
  rig.machine->Start();
  rig.sim.RunFor(Duration::Millis(50));
  EXPECT_EQ(hog->total_cycles(), rig.sim.cpu().DurationToCycles(Duration::Millis(50)));
}

TEST(MachineTest, OverheadsReduceUserCapacity) {
  MachineRig rig(/*charge_overheads=*/true);
  SimThread* hog = rig.threads.Create("hog", std::make_unique<CpuHogWork>());
  rig.machine->Attach(hog);
  rig.machine->Start();
  rig.sim.RunFor(Duration::Seconds(1));
  const Cycles total = rig.sim.cpu().DurationToCycles(Duration::Seconds(1));
  EXPECT_LT(hog->total_cycles(), total);
  EXPECT_GT(hog->total_cycles(), total * 9 / 10);  // Overhead is small at 1 kHz.
  EXPECT_GT(rig.sim.cpu().Used(CpuUse::kDispatch), 0);
  EXPECT_GT(rig.sim.cpu().Used(CpuUse::kTimer), 0);
}

TEST(MachineTest, StealCyclesTaxesFollowingTicks) {
  MachineRig rig(/*charge_overheads=*/true);
  SimThread* hog = rig.threads.Create("hog", std::make_unique<CpuHogWork>());
  rig.machine->Attach(hog);
  rig.machine->Start();
  rig.sim.RunFor(Duration::Millis(10));
  const Cycles before = hog->total_cycles();
  // Steal two full ticks' worth of cycles for the "controller".
  rig.machine->StealCycles(CpuUse::kController, 800'000);
  rig.sim.RunFor(Duration::Millis(10));
  const Cycles gained = hog->total_cycles() - before;
  const Cycles ten_ms = rig.sim.cpu().DurationToCycles(Duration::Millis(10));
  EXPECT_LT(gained, ten_ms - 700'000);
  EXPECT_EQ(rig.sim.cpu().Used(CpuUse::kController), 800'000);
}

TEST(MachineTest, ProducerConsumerBlockAndWake) {
  MachineRig rig;
  rig.sim.trace().SetEnabled(true);
  BoundedBuffer* q = rig.queues.CreateQueue("q", 1'000);
  rig.machine->Attach(q);

  // Fast producer (fills the queue quickly), slow consumer.
  SimThread* producer = rig.threads.Create(
      "producer", std::make_unique<ProducerWork>(q, /*cycles_per_item=*/10'000,
                                                 RateSchedule(100.0)));
  SimThread* consumer = rig.threads.Create(
      "consumer", std::make_unique<ConsumerWork>(q, /*cycles_per_byte=*/1'000));
  rig.machine->Attach(producer);
  rig.machine->Attach(consumer);
  rig.rbs.SetReservation(producer, Proportion::Ppt(300), Duration::Millis(10), rig.sim.Now());
  rig.rbs.SetReservation(consumer, Proportion::Ppt(300), Duration::Millis(10), rig.sim.Now());

  rig.machine->Start();
  rig.sim.RunFor(Duration::Seconds(1));

  // The producer must have blocked on the full queue and been woken at least once.
  EXPECT_GT(rig.sim.trace().Count(TraceKind::kBlock, producer->id()), 0);
  EXPECT_GT(rig.sim.trace().Count(TraceKind::kWake, producer->id()), 0);
  // Data flowed end to end and is conserved.
  EXPECT_GT(q->total_popped(), 0);
  EXPECT_EQ(q->total_pushed() - q->total_popped(), q->fill());
}

TEST(MachineTest, ConsumerBlocksOnEmptyQueue) {
  MachineRig rig;
  rig.sim.trace().SetEnabled(true);
  BoundedBuffer* q = rig.queues.CreateQueue("q", 1'000);
  rig.machine->Attach(q);
  SimThread* consumer =
      rig.threads.Create("consumer", std::make_unique<ConsumerWork>(q, 1'000));
  rig.machine->Attach(consumer);
  rig.machine->Start();
  rig.sim.RunFor(Duration::Millis(20));
  EXPECT_EQ(consumer->state(), ThreadState::kBlocked);
  EXPECT_EQ(rig.sim.trace().Count(TraceKind::kBlock, consumer->id()), 1);
  // An external push wakes it.
  q->TryPush(100);
  rig.sim.RunFor(Duration::Millis(5));
  EXPECT_GT(consumer->total_cycles(), 0);
}

// The times (ns) at which `id` was woken with wake argument `arg0` (-1: timer
// expiry, -2: CancelSleep).
std::vector<int64_t> WakeTimes(const Simulator& sim, ThreadId id, int64_t arg0) {
  std::vector<int64_t> times;
  for (const TraceEvent& e : sim.trace().events()) {
    if (e.kind == TraceKind::kWake && e.thread == id && e.arg0 == arg0) {
      times.push_back(e.t.nanos());
    }
  }
  return times;
}

TEST(MachineTest, SleepUntilWakesAtRequestedTick) {
  // Sleep lengths inside the 128-tick sleeper wheel, at its edge, just past it, and
  // two laps past it: each must wake on exactly its own tick, whether the machine
  // ticks through the sleep or fast-forwards over it.
  for (const int64_t sleep_ms : {10, 127, 128, 129, 300}) {
    for (const bool ff : {true, false}) {
      SCOPED_TRACE(testing::Message() << sleep_ms << " ms, fast-forward " << ff);
      MachineRig rig;
      rig.machine = std::make_unique<Machine>(
          rig.sim, rig.rbs, rig.threads,
          MachineConfig{.dispatch_interval = Duration::Millis(1),
                        .charge_overheads = false,
                        .idle_fast_forward = ff});
      rig.sim.trace().SetEnabled(true);
      SimThread* t = rig.threads.Create("sleeper", std::make_unique<CpuHogWork>());
      rig.machine->Attach(t);
      rig.machine->Start();
      rig.machine->RunFor(Duration::Millis(2));
      t->set_state(ThreadState::kRunnable);
      const TimePoint wake_at = rig.sim.Now() + Duration::Millis(sleep_ms);
      rig.machine->SleepUntil(t, wake_at);
      EXPECT_EQ(t->state(), ThreadState::kSleeping);
      const Cycles before = t->total_cycles();
      rig.machine->RunFor(Duration::Millis(sleep_ms - 1));
      EXPECT_EQ(t->total_cycles(), before);  // Still asleep one tick short.
      rig.machine->RunFor(Duration::Millis(5));
      EXPECT_GT(t->total_cycles(), before);  // Woke and ran.
      EXPECT_EQ(WakeTimes(rig.sim, t->id(), -1), std::vector<int64_t>{wake_at.nanos()});
    }
  }
}

TEST(MachineTest, CancelSleepWakesEarly) {
  MachineRig rig;
  rig.sim.trace().SetEnabled(true);
  SimThread* t = rig.threads.Create("sleeper", std::make_unique<CpuHogWork>());
  rig.machine->Attach(t);
  rig.machine->Start();
  rig.sim.RunFor(Duration::Millis(1));
  t->set_state(ThreadState::kRunnable);
  const TimePoint cancelled_wake = rig.sim.Now() + Duration::Millis(300);
  rig.machine->SleepUntil(t, cancelled_wake);
  rig.machine->CancelSleep(t);
  EXPECT_EQ(t->state(), ThreadState::kRunnable);
  rig.sim.RunFor(Duration::Millis(5));
  EXPECT_GT(t->total_cycles(), 0);
  // Asleep again across the cancelled entry's tick: the stale wheel entry, two laps
  // out, must not wake the new incarnation when its bucket comes round.
  rig.sim.RunFor(Duration::Millis(200));
  const TimePoint wake_at = cancelled_wake + Duration::Millis(100);
  rig.machine->SleepUntil(t, wake_at);
  rig.sim.RunFor(Duration::Millis(150));
  EXPECT_EQ(t->state(), ThreadState::kSleeping);
  rig.sim.RunFor(Duration::Millis(50));
  EXPECT_EQ(t->state(), ThreadState::kRunnable);
  EXPECT_EQ(WakeTimes(rig.sim, t->id(), -2).size(), 1u);
  EXPECT_EQ(WakeTimes(rig.sim, t->id(), -1), std::vector<int64_t>{wake_at.nanos()});
}

TEST(MachineTest, CancelSleepOnRunnableIsNoOp) {
  MachineRig rig;
  SimThread* t = rig.threads.Create("t", std::make_unique<CpuHogWork>());
  rig.machine->Attach(t);
  rig.machine->CancelSleep(t);
  EXPECT_EQ(t->state(), ThreadState::kRunnable);
}

TEST(MachineTest, WakeOnNonBlockedIsSpurious) {
  MachineRig rig;
  SimThread* t = rig.threads.Create("t", std::make_unique<CpuHogWork>());
  rig.machine->Attach(t);
  rig.machine->Wake(t->id());  // Runnable already: no-op.
  EXPECT_EQ(t->state(), ThreadState::kRunnable);
  rig.machine->Wake(999);  // Unknown id: no-op.
}

TEST(MachineTest, ContextSwitchesCountedBetweenThreads) {
  MachineRig rig;
  SimThread* a = rig.threads.Create("a", std::make_unique<CpuHogWork>());
  SimThread* b = rig.threads.Create("b", std::make_unique<CpuHogWork>());
  rig.machine->Attach(a);
  rig.machine->Attach(b);
  rig.rbs.SetReservation(a, Proportion::Ppt(450), Duration::Millis(2), rig.sim.Now());
  rig.rbs.SetReservation(b, Proportion::Ppt(450), Duration::Millis(2), rig.sim.Now());
  rig.machine->Start();
  rig.sim.RunFor(Duration::Millis(100));
  EXPECT_GT(rig.machine->context_switches(), 20);
  EXPECT_GT(rig.machine->dispatches(), rig.machine->context_switches());
}

TEST(MachineTest, ExitedThreadLeavesScheduler) {
  // A work model that runs once then exits.
  class OneShotWork : public WorkModel {
   public:
    RunResult Run(TimePoint, Cycles granted) override { return RunResult::Exited(granted); }
  };
  MachineRig rig;
  rig.sim.trace().SetEnabled(true);
  SimThread* t = rig.threads.Create("oneshot", std::make_unique<OneShotWork>());
  rig.machine->Attach(t);
  rig.machine->Start();
  rig.sim.RunFor(Duration::Millis(10));
  EXPECT_TRUE(t->HasExited());
  EXPECT_EQ(rig.sim.trace().Count(TraceKind::kExit, t->id()), 1);
  // Only the first tick's cycles were consumed.
  EXPECT_EQ(t->total_cycles(), rig.sim.cpu().DurationToCycles(Duration::Millis(1)));
}

TEST(MachineIdleFastForwardTest, SuspendsWhenNothingRunnableAndCatchUpIsExact) {
  // An empty machine suspends its dispatch clocks after the first idle round; the
  // end-of-run catch-up must reproduce every counter and charge a continuously
  // ticking machine would show.
  MachineRig eager;
  eager.machine = std::make_unique<Machine>(
      eager.sim, eager.rbs, eager.threads,
      MachineConfig{.dispatch_interval = Duration::Millis(1),
                    .charge_overheads = true,
                    .idle_fast_forward = false});
  MachineRig fast(/*charge_overheads=*/true);

  for (MachineRig* rig : {&eager, &fast}) {
    rig->machine->Start();
    rig->machine->RunFor(Duration::Millis(500));
  }
  EXPECT_EQ(fast.machine->idle_suspended(), true);
  EXPECT_GT(fast.machine->idle_suspensions(), 0);
  EXPECT_EQ(eager.machine->idle_suspensions(), 0);
  // Identical introspection...
  EXPECT_EQ(fast.machine->ticks(), eager.machine->ticks());
  EXPECT_EQ(fast.machine->dispatches(), eager.machine->dispatches());
  // ...and identical accounting, category by category.
  for (const CpuUse use : {CpuUse::kIdle, CpuUse::kDispatch, CpuUse::kTimer, CpuUse::kUser}) {
    EXPECT_EQ(fast.sim.cpu().Used(use), eager.sim.cpu().Used(use))
        << "category " << static_cast<int>(use);
  }
  // But the suspended machine did it with a fraction of the simulator events.
  EXPECT_LT(fast.sim.events_processed(), eager.sim.events_processed() / 10);
}

TEST(MachineIdleFastForwardTest, SleeperHorizonWakesOnTimeAcrossSuspension) {
  // A reserved thread throttled to sleep is the idle-fast-forward steady state: the
  // machine must wake it at exactly the tick its period begins, via the horizon
  // event, with the same schedule as an eagerly ticking machine.
  auto run = [](bool ff) {
    MachineRig rig;
    rig.machine = std::make_unique<Machine>(
        rig.sim, rig.rbs, rig.threads,
        MachineConfig{.dispatch_interval = Duration::Millis(1),
                      .charge_overheads = false,
                      .idle_fast_forward = ff});
    rig.sim.trace().SetEnabled(true);
    SimThread* hog = rig.threads.Create("hog", std::make_unique<CpuHogWork>());
    rig.machine->Attach(hog);
    rig.rbs.SetReservation(hog, Proportion::Ppt(100), Duration::Millis(10), rig.sim.Now());
    rig.machine->Start();
    rig.machine->RunFor(Duration::Seconds(1));
    return std::pair<uint64_t, Cycles>(rig.sim.trace().Hash(), hog->total_cycles());
  };
  const auto fast = run(true);
  const auto eager = run(false);
  EXPECT_EQ(fast.first, eager.first);
  EXPECT_EQ(fast.second, eager.second);
}

TEST(MachineIdleFastForwardTest, OffGridStartKeepsSleeperWakesAligned) {
  // Regression: the horizon event used to round sleeper wake times up to a multiple
  // of the dispatch interval from simulator time zero, but the tick grid is anchored
  // at Machine::Start — a machine started off-grid (t = 0.5 ms here, ticks at
  // 0.5 + k ms) woke sleepers one interval late under fast-forward.
  auto run = [](bool ff) {
    MachineRig rig;
    rig.machine = std::make_unique<Machine>(
        rig.sim, rig.rbs, rig.threads,
        MachineConfig{.dispatch_interval = Duration::Millis(1),
                      .charge_overheads = false,
                      .idle_fast_forward = ff});
    SimThread* t = rig.threads.Create("sleeper", std::make_unique<CpuHogWork>());
    rig.machine->Attach(t);
    rig.sim.RunFor(Duration::Micros(500));  // Start off the ms grid.
    rig.machine->Start();
    rig.sim.RunFor(Duration::Micros(1800));  // Let a tick run, then sleep the thread.
    rig.machine->SleepUntil(t, TimePoint::FromNanos(10'300'000));
    rig.machine->RunFor(Duration::Millis(20));
    return t->last_wake_time();
  };
  const TimePoint fast = run(true);
  const TimePoint eager = run(false);
  EXPECT_EQ(fast, eager);
  // The servicing tick is the machine's own grid point at/after the wake time.
  EXPECT_EQ(eager, TimePoint::FromNanos(10'500'000));
}

TEST(MachineIdleFastForwardTest, ExternalWakeResumesSuspendedMachine) {
  // Fully quiescent suspension (no sleepers, no horizon event): an external queue
  // push must restart the dispatch clocks at the next tick boundary.
  MachineRig rig;
  rig.sim.trace().SetEnabled(true);
  BoundedBuffer* q = rig.queues.CreateQueue("q", 1'000);
  rig.machine->Attach(q);
  SimThread* consumer =
      rig.threads.Create("consumer", std::make_unique<ConsumerWork>(q, 1'000));
  rig.machine->Attach(consumer);
  rig.machine->Start();
  rig.machine->RunFor(Duration::Millis(20));
  EXPECT_EQ(consumer->state(), ThreadState::kBlocked);
  EXPECT_TRUE(rig.machine->idle_suspended());
  EXPECT_EQ(rig.sim.pending_events(), 0u);  // No per-tick callbacks burning events.
  q->TryPush(100);
  EXPECT_FALSE(rig.machine->idle_suspended());
  rig.machine->RunFor(Duration::Millis(5));
  EXPECT_GT(consumer->total_cycles(), 0);
}

}  // namespace
}  // namespace realrate
