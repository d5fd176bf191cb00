// Hot-field slabs and thread arena (task/thread_slabs.h): Bind/Release slot
// lifecycle, write-through mirroring, the per-core placement census, migration slot
// stability, scheduler removal mid-run, kAuto index activation, and the trace
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

// Arena-backed threads bound to a standalone slab set (no registry), so the tests
// can exercise Release — the registry itself never releases slots.
struct SlabRig {
  ThreadArena arena;
  ThreadSlabs slabs;
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

  const int32_t slot = rig.slabs.Bind(t);
  EXPECT_EQ(slot, t->slab_slot());
  EXPECT_EQ(t->bound_slabs(), &rig.slabs);
  EXPECT_EQ(rig.slabs.thread_at(slot), t);
  EXPECT_EQ(rig.slabs.slot_of(t->id()), slot);
  EXPECT_EQ(rig.slabs.state(slot), ThreadState::kRunnable);
  EXPECT_EQ(rig.slabs.policy(slot), SchedPolicy::kReservation);
  EXPECT_EQ(rig.slabs.cpu(slot), 3);
  EXPECT_EQ(rig.slabs.granted_ppt(slot), 250);
  EXPECT_EQ(rig.slabs.rm_rank(slot), PeriodRank(Duration::Millis(20)));
  EXPECT_EQ(rig.slabs.deadline_nanos(slot), (t->period_start() + t->period()).nanos());
  EXPECT_TRUE(rig.slabs.MatchesObject(*t));
}

TEST(ThreadSlabsTest, SettersWriteThroughToColumns) {
  SlabRig rig;
  SimThread* t = rig.Spawn();
  const int32_t slot = t->slab_slot();

  t->set_state(ThreadState::kSleeping);
  EXPECT_EQ(rig.slabs.state(slot), ThreadState::kSleeping);
  t->set_cpu(5);
  EXPECT_EQ(rig.slabs.cpu(slot), 5);
  t->set_policy(SchedPolicy::kReservation);
  t->SetReservation(Proportion::Ppt(77), Duration::Millis(7));
  EXPECT_EQ(rig.slabs.granted_ppt(slot), 77);
  EXPECT_EQ(rig.slabs.rm_rank(slot), PeriodRank(Duration::Millis(7)));
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
  rig.slabs.Release(b);
  EXPECT_EQ(rig.slabs.runnable_count(), 0);
}

TEST(ThreadSlabsTest, ReleaseRecyclesSlotsLifoAndLeavesOthersIntact) {
  SlabRig rig;
  for (int i = 0; i < 4; ++i) {
    SimThread* t = rig.Spawn();
    t->set_policy(SchedPolicy::kReservation);
    t->SetReservation(Proportion::Ppt(10 + i), Duration::Millis(10));
  }
  const int32_t slot1 = rig.threads[1]->slab_slot();
  const int32_t slot2 = rig.threads[2]->slab_slot();

  rig.slabs.Release(rig.threads[1]);
  rig.slabs.Release(rig.threads[2]);
  EXPECT_EQ(rig.threads[1]->bound_slabs(), nullptr);
  EXPECT_EQ(rig.threads[1]->slab_slot(), ThreadSlabs::kNoSlot);
  // Freed slots read inert, so sweeps skip them by predicate.
  EXPECT_EQ(rig.slabs.state(slot1), ThreadState::kExited);
  EXPECT_EQ(rig.slabs.granted_ppt(slot1), 0);
  EXPECT_EQ(rig.slabs.thread_at(slot1), nullptr);
  // Survivors' slots and columns are untouched.
  EXPECT_EQ(rig.threads[0]->slab_slot(), 0);
  EXPECT_EQ(rig.threads[3]->slab_slot(), 3);
  EXPECT_EQ(rig.slabs.granted_ppt(rig.threads[3]->slab_slot()), 13);
  EXPECT_EQ(rig.slabs.live_count(), 2);

  // LIFO recycling: the most recently freed slot is handed out first, and the
  // slab does not grow while free slots exist.
  const int32_t before = rig.slabs.slot_count();
  SimThread* x = rig.Spawn();
  SimThread* y = rig.Spawn();
  EXPECT_EQ(x->slab_slot(), slot2);
  EXPECT_EQ(y->slab_slot(), slot1);
  EXPECT_EQ(rig.slabs.slot_count(), before);
}

TEST(ThreadSlabsTest, FourThousandThreadChurnKeepsBindingsCoherent) {
  SlabRig rig;
  constexpr int kTotal = 4096;
  for (int i = 0; i < kTotal; ++i) {
    SimThread* t = rig.Spawn();
    t->set_state(i % 2 == 0 ? ThreadState::kRunnable : ThreadState::kBlocked);
  }
  EXPECT_EQ(rig.slabs.live_count(), kTotal);

  // Release every third thread, then bind the same number of fresh ones: the slab
  // must recycle every hole before growing, and every binding must stay coherent.
  int released = 0;
  for (int i = 0; i < kTotal; i += 3) {
    rig.slabs.Release(rig.threads[static_cast<size_t>(i)]);
    ++released;
  }
  EXPECT_EQ(rig.slabs.live_count(), kTotal - released);
  const int32_t peak = rig.slabs.slot_count();
  for (int i = 0; i < released; ++i) {
    rig.Spawn();
  }
  EXPECT_EQ(rig.slabs.slot_count(), peak);
  EXPECT_EQ(rig.slabs.live_count(), kTotal);

  int32_t live_by_scan = 0;
  for (int32_t s = 0; s < rig.slabs.slot_count(); ++s) {
    SimThread* t = rig.slabs.thread_at(s);
    if (t == nullptr) {
      continue;
    }
    ++live_by_scan;
    ASSERT_EQ(t->slab_slot(), s);
    ASSERT_EQ(rig.slabs.slot_of(t->id()), s);
    ASSERT_TRUE(rig.slabs.MatchesObject(*t));
  }
  EXPECT_EQ(live_by_scan, kTotal);
}

TEST(ThreadSlabsTest, PerCoreCensusMatchesRescanThroughChurn) {
  // The per-core aggregates behind Machine::LeastLoadedCore are kept by
  // write-through; they must equal a full column rescan after a migration storm,
  // reservation churn, exits, releases and rebinding into recycled slots.
  constexpr CpuId kCores = 5;
  SlabRig rig;
  Rng rng(77);
  auto check = [&] {
    for (CpuId c = 0; c <= kCores; ++c) {  // Core kCores is never used: reads 0.
      int64_t live = 0;
      int64_t ppt = 0;
      for (int32_t s = 0; s < rig.slabs.slot_count(); ++s) {
        if (rig.slabs.cpu(s) != c || rig.slabs.state(s) == ThreadState::kExited) {
          continue;
        }
        ++live;
        if (rig.slabs.policy(s) == SchedPolicy::kReservation) {
          ppt += rig.slabs.granted_ppt(s);
        }
      }
      ASSERT_EQ(rig.slabs.live_on(c), live) << "core " << c;
      ASSERT_EQ(rig.slabs.reserved_ppt_on(c), ppt) << "core " << c;
    }
  };
  for (int i = 0; i < 256; ++i) {
    rig.Spawn()->set_state(ThreadState::kRunnable);
  }
  check();
  constexpr ThreadState kStates[] = {ThreadState::kRunnable, ThreadState::kRunning,
                                     ThreadState::kBlocked, ThreadState::kSleeping,
                                     ThreadState::kExited};
  int exits = 0;
  int releases = 0;
  for (int op = 0; op < 20'000; ++op) {
    SimThread* t = rig.threads[rng.NextBounded(rig.threads.size())];
    if (t->bound_slabs() == nullptr) {
      continue;  // Released below; its slot belongs to someone else now.
    }
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
        rig.slabs.Release(t);
        ++releases;
        rig.Spawn()->set_cpu(static_cast<CpuId>(rng.NextBounded(kCores)));
        break;
    }
    if (op % 97 == 0) {
      check();
    }
  }
  check();
  EXPECT_GT(exits, 100);
  EXPECT_GT(releases, 100);
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
  const int32_t slot = t->slab_slot();
  const CpuId from = t->cpu();
  const CpuId to = from == 0 ? 1 : 0;
  machine.Migrate(t, to);
  EXPECT_EQ(t->slab_slot(), slot);
  EXPECT_EQ(slabs->cpu(slot), to);
  EXPECT_EQ(slabs->thread_at(slot), t);
  EXPECT_TRUE(slabs->MatchesObject(*t));
}

TEST(ThreadSlabsTest, SchedulerRemoveMidRunKeepsSlabBindingAndReindexes) {
  // RemoveThread takes a thread out of the run queue mid-run; the registry keeps
  // the slab binding (slot == id is the registry's contract), and a later pick
  // must not return the removed thread.
  Simulator sim;
  ThreadRegistry threads;
  RbsConfig config;
  config.pick_mode = PickMode::kIndexed;
  RbsScheduler rbs(sim.cpu(), config);
  std::vector<SimThread*> all;
  for (int i = 0; i < 8; ++i) {
    SimThread* t = threads.Create("t" + std::to_string(i), std::make_unique<CpuHogWork>());
    rbs.AddThread(t);
    rbs.SetReservation(t, Proportion::Ppt(10), Duration::Millis(10 + i), sim.Now());
    all.push_back(t);
  }
  SimThread* victim = rbs.PickNext(sim.Now());
  ASSERT_NE(victim, nullptr);
  rbs.RemoveThread(victim);
  EXPECT_EQ(victim->slab_slot(), static_cast<int32_t>(victim->id()));
  for (int i = 0; i < 8; ++i) {
    SimThread* pick = rbs.PickNext(sim.Now());
    ASSERT_NE(pick, nullptr);
    EXPECT_NE(pick, victim);
  }
}

TEST(ThreadSlabsTest, AutoPickModeActivatesAndDeactivatesWithHysteresis) {
  Simulator sim;
  ThreadRegistry threads;
  RbsConfig config;
  config.pick_mode = PickMode::kAuto;
  config.auto_index_threshold = 16;
  RbsScheduler rbs(sim.cpu(), config);
  std::vector<SimThread*> all;
  for (int i = 0; i < 15; ++i) {
    SimThread* t = threads.Create("t" + std::to_string(i), std::make_unique<CpuHogWork>());
    rbs.AddThread(t);
    all.push_back(t);
  }
  EXPECT_FALSE(rbs.indexing_active());  // Below threshold: reference scan.
  SimThread* extra = threads.Create("extra", std::make_unique<CpuHogWork>());
  rbs.AddThread(extra);
  all.push_back(extra);
  EXPECT_TRUE(rbs.indexing_active());  // Crossed the threshold.

  // Hysteresis: stays on until the population falls below threshold / 2.
  while (all.size() > 8) {
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
