// Hot-field slabs and thread arena (task/thread_slabs.h): append-only binding with
// slot == ThreadId and its preconditions, write-through mirroring, the per-core
// placement census, migration slot stability, scheduler removal mid-run, the
// scheduler's enqueued-once precondition, pick-index activation, and the trace
// recorder's hash-only mode the farm scenarios lean on.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "task/registry.h"
#include "task/thread.h"
#include "task/thread_slabs.h"
#include "util/rng.h"
#include "workloads/misc_work.h"

namespace realrate {
namespace {

// Arena-backed threads bound to a standalone slab set (no registry), so a test can
// set a thread's fields before binding it. Slabs first: they must outlive the threads.
struct SlabRig {
  ThreadSlabs slabs;
  ThreadArena arena;
  std::vector<SimThread*> threads;

  SimThread* Spawn() {
    const auto id = static_cast<ThreadId>(arena.size());
    SimThread* t = arena.Create(id, "t" + std::to_string(id),
                                std::make_unique<CpuHogWork>());
    slabs.Bind(t);
    threads.push_back(t);
    return t;
  }
};

TEST(ThreadSlabsTest, BindSeedsColumnsFromObject) {
  SlabRig rig;
  SimThread* t = rig.arena.Create(0, "seeded", std::make_unique<CpuHogWork>());
  t->set_policy(SchedPolicy::kReservation);
  t->SetReservation(Proportion::Ppt(250), Duration::Millis(20));
  t->set_cpu(3);
  t->set_state(ThreadState::kRunnable);

  rig.slabs.Bind(t);
  const int32_t slot = t->id();
  EXPECT_EQ(rig.slabs.slot_count(), 1);
  EXPECT_EQ(t->bound_slabs(), &rig.slabs);
  EXPECT_EQ(rig.slabs.state(slot), ThreadState::kRunnable);
  EXPECT_EQ(rig.slabs.policy(slot), SchedPolicy::kReservation);
  EXPECT_EQ(rig.slabs.cpu(slot), 3);
  EXPECT_EQ(rig.slabs.granted_ppt(slot), 250);
  EXPECT_TRUE(rig.slabs.MatchesObject(*t));
  // A reservation bound in counts once in its core's census.
  EXPECT_EQ(rig.slabs.runnable_count(), 1);
  EXPECT_EQ(rig.slabs.live_on(3), 1);
  EXPECT_EQ(rig.slabs.reserved_ppt_on(3), 250);
}

TEST(ThreadSlabsDeathTest, OutOfOrderAppendDies) {
  // Slot == ThreadId: the next bind must carry id slot_count().
  SlabRig rig;
  rig.Spawn();
  SimThread* skipped = rig.arena.Create(2, "skipped", std::make_unique<CpuHogWork>());
  EXPECT_DEATH(rig.slabs.Bind(skipped), "Precondition failed: thread->id\\(\\) == slot_count");
  EXPECT_DEATH(rig.slabs.Bind(rig.threads[0]), "Precondition failed: thread->slabs_");
}

TEST(ThreadSlabsTest, SettersWriteThroughToColumns) {
  SlabRig rig;
  SimThread* t = rig.Spawn();
  const int32_t slot = t->id();

  t->set_state(ThreadState::kSleeping);
  EXPECT_EQ(rig.slabs.state(slot), ThreadState::kSleeping);
  t->set_cpu(5);
  EXPECT_EQ(rig.slabs.cpu(slot), 5);
  t->set_policy(SchedPolicy::kReservation);
  t->SetReservation(Proportion::Ppt(77), Duration::Millis(7));
  EXPECT_EQ(rig.slabs.granted_ppt(slot), 77);
  t->set_importance(4.5);
  EXPECT_EQ(rig.slabs.importance(slot), 4.5);
  EXPECT_TRUE(rig.slabs.MatchesObject(*t));
}

TEST(ThreadSlabsTest, RunnableCountTracksStateColumn) {
  SlabRig rig;
  SimThread* a = rig.Spawn();
  SimThread* b = rig.Spawn();
  a->set_state(ThreadState::kRunnable);
  b->set_state(ThreadState::kRunnable);
  EXPECT_EQ(rig.slabs.runnable_count(), 2);
  a->set_state(ThreadState::kBlocked);
  EXPECT_EQ(rig.slabs.runnable_count(), 1);
  b->set_state(ThreadState::kExited);
  EXPECT_EQ(rig.slabs.runnable_count(), 0);
}

TEST(ThreadSlabsTest, PerCoreCensusMatchesRescanThroughChurn) {
  // The per-core aggregates behind Machine::LeastLoadedCore are kept by
  // write-through; they must equal a full column rescan after a migration storm,
  // reservation and policy churn, exits, and threads the registry keeps creating.
  constexpr CpuId kCores = 5;
  ThreadRegistry registry;
  const ThreadSlabs& slabs = *registry.slabs();
  Rng rng(77);
  auto spawn = [&] {
    return registry.Create("t" + std::to_string(registry.size()),
                           std::make_unique<CpuHogWork>());
  };
  auto check = [&] {
    ASSERT_EQ(slabs.slot_count(), static_cast<int32_t>(registry.size()));
    for (CpuId c = 0; c <= kCores; ++c) {  // Core kCores is never used: reads 0.
      int64_t live = 0;
      int64_t ppt = 0;
      for (int32_t s = 0; s < slabs.slot_count(); ++s) {
        if (slabs.cpu(s) != c || slabs.state(s) == ThreadState::kExited) {
          continue;
        }
        ++live;
        if (slabs.policy(s) == SchedPolicy::kReservation) {
          ppt += slabs.granted_ppt(s);
        }
      }
      ASSERT_EQ(slabs.live_on(c), live) << "core " << c;
      ASSERT_EQ(slabs.reserved_ppt_on(c), ppt) << "core " << c;
    }
  };
  for (int i = 0; i < 256; ++i) {
    spawn()->set_state(ThreadState::kRunnable);
  }
  check();
  constexpr ThreadState kStates[] = {ThreadState::kRunnable, ThreadState::kRunning,
                                     ThreadState::kBlocked, ThreadState::kSleeping,
                                     ThreadState::kExited};
  int exits = 0;
  int spawns = 0;
  for (int op = 0; op < 20'000; ++op) {
    SimThread* t = registry.All()[rng.NextBounded(registry.size())];
    switch (rng.NextBounded(7)) {
      case 0:
      case 1:
        t->set_cpu(static_cast<CpuId>(rng.NextBounded(kCores)));
        break;
      case 2:
        t->set_policy(rng.NextBool(0.5) ? SchedPolicy::kReservation : SchedPolicy::kOther);
        break;
      case 3:
        t->SetReservation(Proportion::Ppt(static_cast<int32_t>(rng.NextBounded(300))),
                          Duration::Millis(10));
        break;
      case 4: {
        const ThreadState st = kStates[rng.NextBounded(5)];
        exits += st == ThreadState::kExited && !t->HasExited();
        t->set_state(st);
        break;
      }
      case 5:
        t->set_period_start(TimePoint::FromNanos(static_cast<int64_t>(op)));
        break;
      default:
        spawn()->set_cpu(static_cast<CpuId>(rng.NextBounded(kCores)));
        ++spawns;
        break;
    }
    if (op % 97 == 0) {
      check();
    }
  }
  check();
  for (const SimThread* t : registry.All()) {
    ASSERT_TRUE(slabs.MatchesObject(*t)) << "thread " << t->id();
  }
  EXPECT_GT(exits, 100);
  EXPECT_GT(spawns, 100);
}

TEST(ThreadSlabsTest, MigrationRewritesCpuColumnWithoutMovingSlot) {
  // The Machine moves slots between cores by rewriting the cpu column; the slot
  // (and everything else in it) must not move.
  Simulator sim(CpuConfig{}, 2);
  ThreadRegistry threads;
  std::vector<std::unique_ptr<RbsScheduler>> schedulers;
  std::vector<Scheduler*> raw;
  for (CpuId c = 0; c < 2; ++c) {
    schedulers.push_back(std::make_unique<RbsScheduler>(sim.cpu(c)));
    raw.push_back(schedulers.back().get());
  }
  Machine machine(sim, raw, threads, MachineConfig{});
  SimThread* t = threads.Create("mover", std::make_unique<CpuHogWork>());
  machine.Attach(t);

  ThreadSlabs* slabs = threads.slabs();
  ASSERT_NE(slabs, nullptr);
  const CpuId from = t->cpu();
  const CpuId to = from == 0 ? 1 : 0;
  machine.Migrate(t, to);
  EXPECT_EQ(slabs->cpu(t->id()), to);
  EXPECT_EQ(slabs->live_on(to), 1);
  EXPECT_EQ(slabs->live_on(from), 0);
  EXPECT_TRUE(slabs->MatchesObject(*t));
}

TEST(ThreadSlabsTest, SchedulerRemoveMidRunKeepsSlabBindingAndReindexes) {
  // RemoveThread takes a thread out of the run queue mid-run; the registry keeps
  // the slab binding (slot == id for the thread's life), and a later pick must not
  // return the removed thread. 96 threads: enough for the pick index.
  Simulator sim;
  ThreadRegistry threads;
  RbsScheduler rbs(sim.cpu());
  for (int i = 0; i < 96; ++i) {
    SimThread* t = threads.Create("t" + std::to_string(i), std::make_unique<CpuHogWork>());
    rbs.AddThread(t);
    rbs.SetReservation(t, Proportion::Ppt(1), Duration::Millis(10 + i), sim.Now());
  }
  ASSERT_TRUE(rbs.indexing_active());
  SimThread* victim = rbs.PickNext(sim.Now());
  ASSERT_NE(victim, nullptr);
  rbs.RemoveThread(victim);
  EXPECT_TRUE(rbs.indexing_active());  // 95 enqueued: above the switch-off point.
  EXPECT_EQ(victim->bound_slabs(), threads.slabs());
  EXPECT_TRUE(threads.slabs()->MatchesObject(*victim));
  for (int i = 0; i < 8; ++i) {
    SimThread* pick = rbs.PickNext(sim.Now());
    ASSERT_NE(pick, nullptr);
    EXPECT_NE(pick, victim);
  }
}

TEST(ThreadSlabsDeathTest, SchedulerRejectsAThreadEnqueuedElsewhere) {
  // A thread's sched_slot is its position in one run queue, so a thread joins a
  // scheduler only while enqueued nowhere — not twice here, not while another
  // core's scheduler holds it.
  Simulator sim(CpuConfig{}, 2);
  ThreadRegistry threads;
  SimThread* t = threads.Create("t", std::make_unique<CpuHogWork>());
  RbsScheduler here(sim.cpu(0));
  RbsScheduler there(sim.cpu(1));
  here.AddThread(t);
  EXPECT_DEATH(here.AddThread(t), "Precondition failed: thread->sched_slot");
  EXPECT_DEATH(there.AddThread(t), "Precondition failed: thread->sched_slot");
  here.RemoveThread(t);
  there.AddThread(t);  // Enqueued nowhere again: any scheduler may take it.
  EXPECT_EQ(there.threads(), std::vector<SimThread*>{t});
}

TEST(ThreadSlabsTest, PickIndexActivatesAndDeactivatesWithHysteresis) {
  // The occupancy switch: the index turns on at 96 enqueued threads and off only
  // below 48.
  Simulator sim;
  ThreadRegistry threads;
  RbsScheduler rbs(sim.cpu());
  std::vector<SimThread*> all;
  for (int i = 0; i < 95; ++i) {
    SimThread* t = threads.Create("t" + std::to_string(i), std::make_unique<CpuHogWork>());
    rbs.AddThread(t);
    all.push_back(t);
  }
  EXPECT_FALSE(rbs.indexing_active());  // Below the threshold: goodness scan.
  SimThread* extra = threads.Create("extra", std::make_unique<CpuHogWork>());
  rbs.AddThread(extra);
  all.push_back(extra);
  EXPECT_TRUE(rbs.indexing_active());  // Crossed the threshold.

  // Hysteresis: stays on until the population falls below half the threshold.
  while (all.size() > 48) {
    rbs.RemoveThread(all.back());
    all.pop_back();
  }
  EXPECT_TRUE(rbs.indexing_active());
  rbs.RemoveThread(all.back());
  all.pop_back();
  EXPECT_FALSE(rbs.indexing_active());
}

TEST(ThreadSlabsTest, TraceHashOnlyModeFoldsTheIdenticalHash) {
  // The farm scenarios run the recorder in hash-only mode; the pinned golden
  // hashes are only meaningful if that fold is bit-identical to full mode.
  TraceRecorder full;
  TraceRecorder hash_only;
  full.SetEnabled(true);
  hash_only.SetEnabled(true);
  hash_only.SetHashOnly(true);
  for (int i = 0; i < 100; ++i) {
    const TimePoint t = TimePoint{} + Duration::Millis(i);
    full.Record(t, TraceKind::kDispatch, i % 7, i, i * 2);
    hash_only.Record(t, TraceKind::kDispatch, i % 7, i, i * 2);
  }
  EXPECT_EQ(full.events().size(), 100u);
  EXPECT_TRUE(hash_only.events().empty());
  EXPECT_EQ(full.Hash(), hash_only.Hash());
  EXPECT_EQ(full.Hash(), full.HashScan());  // The incremental fold vs the oracle.
}

}  // namespace
}  // namespace realrate
