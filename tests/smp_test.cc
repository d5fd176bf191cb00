// Multi-CPU machine: least-loaded placement, over-subscription rebalancing, per-core
// proportion allocation, wake routing, and — most load-bearing — the guarantee that a
// 1-core machine reproduces the pre-SMP implementation bit for bit.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/scenarios.h"
#include "exp/system.h"
#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "task/registry.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/rate_schedule.h"

namespace realrate {
namespace {

// A bare N-core machine: simulator, one RbsScheduler per core, no controller.
struct SmpRig {
  Simulator sim;
  ThreadRegistry threads;
  std::vector<std::unique_ptr<RbsScheduler>> schedulers;
  std::unique_ptr<Machine> machine;

  explicit SmpRig(int num_cpus, const MachineConfig& config = MachineConfig{})
      : sim(CpuConfig{}, num_cpus) {
    std::vector<Scheduler*> raw;
    for (int i = 0; i < num_cpus; ++i) {
      schedulers.push_back(std::make_unique<RbsScheduler>(sim.cpu(static_cast<CpuId>(i))));
      raw.push_back(schedulers.back().get());
    }
    machine = std::make_unique<Machine>(sim, raw, threads, config);
  }

  SimThread* Spawn(const std::string& name) {
    SimThread* t = threads.Create(name, std::make_unique<CpuHogWork>());
    machine->Attach(t);
    return t;
  }

  void Reserve(SimThread* t, int ppt) {
    // Actuate through the owning core's scheduler: the indexed run queues are
    // maintained by the instance the thread was placed on.
    schedulers[static_cast<size_t>(t->cpu())]->SetReservation(t, Proportion::Ppt(ppt),
                                                              Duration::Millis(10), sim.Now());
  }
};

// ---------------------------------------------------------------------------
// Determinism: cpus=1 must reproduce the pre-SMP machine exactly.
// ---------------------------------------------------------------------------

// Golden trace hashes recorded from the single-CPU implementation at commit
// ddf5999 (before the Machine was generalized to N cores), with the exact rig
// configurations below. If either of these ever changes, cpus=1 behaviour has
// drifted from the paper-validated uniprocessor — that is a bug, not a baseline
// to refresh casually.
constexpr uint64_t kPreSmpMachineTraceHash = 422599069948941333ull;
constexpr uint64_t kPreSmpPipelineTraceHash = 10140366293690684743ull;

TEST(SmpDeterminismTest, SingleCpuMachineTraceMatchesPreSmpBaseline) {
  Simulator sim;
  ThreadRegistry threads;
  RbsScheduler rbs{sim.cpu()};
  QueueRegistry queues;
  Machine machine(sim, rbs, threads,
                  MachineConfig{.dispatch_interval = Duration::Millis(1),
                                .charge_overheads = true});
  sim.trace().SetEnabled(true);
  BoundedBuffer* q = queues.CreateQueue("q", 1'000);
  machine.Attach(q);
  SimThread* producer = threads.Create(
      "producer", std::make_unique<ProducerWork>(q, 10'000, RateSchedule(100.0)));
  SimThread* consumer =
      threads.Create("consumer", std::make_unique<ConsumerWork>(q, 1'000));
  machine.Attach(producer);
  machine.Attach(consumer);
  rbs.SetReservation(producer, Proportion::Ppt(300), Duration::Millis(10), sim.Now());
  rbs.SetReservation(consumer, Proportion::Ppt(300), Duration::Millis(10), sim.Now());
  machine.Start();
  sim.RunFor(Duration::Seconds(1));

  EXPECT_EQ(sim.trace().Hash(), kPreSmpMachineTraceHash);
  EXPECT_EQ(machine.dispatches(), 1501);
  EXPECT_EQ(machine.context_switches(), 802);
}

TEST(SmpDeterminismTest, SingleCpuPipelineScenarioMatchesPreSmpBaseline) {
  PipelineParams params;
  params.with_hog = true;
  params.run_for = Duration::Seconds(8);
  const PipelineResult result = RunPipelineScenario(params);
  EXPECT_EQ(result.trace_hash, kPreSmpPipelineTraceHash);
}

TEST(SmpDeterminismTest, SmpConstructorWithOneCoreMatchesLegacyConstructor) {
  auto run = [](bool smp_ctor) {
    Simulator sim;
    ThreadRegistry threads;
    RbsScheduler rbs{sim.cpu()};
    std::unique_ptr<Machine> machine;
    if (smp_ctor) {
      machine = std::make_unique<Machine>(sim, std::vector<Scheduler*>{&rbs}, threads,
                                          MachineConfig{});
    } else {
      machine = std::make_unique<Machine>(sim, rbs, threads, MachineConfig{});
    }
    sim.trace().SetEnabled(true);
    SimThread* a = threads.Create("a", std::make_unique<CpuHogWork>());
    SimThread* b = threads.Create("b", std::make_unique<CpuHogWork>());
    machine->Attach(a);
    machine->Attach(b);
    rbs.SetReservation(a, Proportion::Ppt(450), Duration::Millis(2), sim.Now());
    rbs.SetReservation(b, Proportion::Ppt(450), Duration::Millis(2), sim.Now());
    machine->Start();
    sim.RunFor(Duration::Millis(500));
    return sim.trace().Hash();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------------

TEST(SmpPlacementTest, TieBreaksByThreadCountThenCoreId) {
  SmpRig rig(2);
  SimThread* a = rig.Spawn("a");
  SimThread* b = rig.Spawn("b");
  SimThread* c = rig.Spawn("c");
  EXPECT_EQ(a->cpu(), 0);  // Empty machine: lowest core id.
  EXPECT_EQ(b->cpu(), 1);  // Core 0 has one thread, core 1 none.
  EXPECT_EQ(c->cpu(), 0);  // Counts tied again: lowest core id.
}

TEST(SmpPlacementTest, PicksLeastReservedCore) {
  SmpRig rig(2);
  SimThread* a = rig.Spawn("a");
  ASSERT_EQ(a->cpu(), 0);
  rig.Reserve(a, 500);  // Core 0 now carries 50%.

  SimThread* b = rig.Spawn("b");
  EXPECT_EQ(b->cpu(), 1);  // 0% reserved beats 50% despite equal... fewer threads too.
  rig.Reserve(b, 200);

  // Core 0: 50%, 1 thread. Core 1: 20%, 1 thread — reserved load dominates count.
  SimThread* c = rig.Spawn("c");
  EXPECT_EQ(c->cpu(), 1);
  rig.Reserve(c, 400);

  // Core 0: 50%. Core 1: 60%.
  SimThread* d = rig.Spawn("d");
  EXPECT_EQ(d->cpu(), 0);
}

// ---------------------------------------------------------------------------
// Rebalance.
// ---------------------------------------------------------------------------

TEST(SmpRebalanceTest, ResolvesDeliberatelyOverSubscribedCore) {
  SmpRig rig(2);
  rig.sim.trace().SetEnabled(true);
  SimThread* a = rig.Spawn("a");
  SimThread* b = rig.Spawn("b");
  SimThread* c = rig.Spawn("c");
  rig.Reserve(a, 500);
  rig.Reserve(b, 400);
  rig.Reserve(c, 300);
  // Stack all 120% of reservation onto core 0.
  rig.machine->Migrate(a, 0);
  rig.machine->Migrate(b, 0);
  rig.machine->Migrate(c, 0);
  ASSERT_DOUBLE_EQ(rig.machine->ReservedFractionOn(0), 1.2);
  const int64_t forced_migrations = rig.machine->migrations();

  rig.machine->Start();
  rig.sim.RunFor(Duration::Millis(250));  // Past the default 100 ms rebalance period.

  // The rebalancer must have pulled core 0 back under the over-subscription
  // threshold by moving reservations to the idle core.
  EXPECT_LE(rig.machine->ReservedFractionOn(0), 0.9 + 1e-9);
  EXPECT_GT(rig.machine->ReservedFractionOn(1), 0.0);
  EXPECT_GT(rig.machine->migrations(), forced_migrations);
  EXPECT_GT(rig.sim.trace().Count(TraceKind::kMigrate), 0);
  // Load is conserved: every reservation still lives on some core.
  EXPECT_NEAR(rig.machine->ReservedFractionOn(0) + rig.machine->ReservedFractionOn(1),
              1.2, 1e-9);
}

TEST(SmpRebalanceTest, BalancedMachineDoesNotMigrate) {
  SmpRig rig(2);
  SimThread* a = rig.Spawn("a");
  SimThread* b = rig.Spawn("b");
  rig.Reserve(a, 500);
  rig.Reserve(b, 500);
  ASSERT_NE(a->cpu(), b->cpu());
  rig.machine->Start();
  rig.sim.RunFor(Duration::Seconds(1));
  EXPECT_EQ(rig.machine->migrations(), 0);
}

// ---------------------------------------------------------------------------
// Dispatch and wake routing.
// ---------------------------------------------------------------------------

TEST(SmpDispatchTest, AggregateThroughputScalesWithCores) {
  auto user_cycles = [](int cpus) {
    SystemConfig config;
    config.num_cpus = cpus;
    config.start_controller = false;
    System system(config);
    for (int i = 0; i < cpus; ++i) {
      system.Spawn("hog" + std::to_string(i), std::make_unique<CpuHogWork>());
    }
    system.Start();
    system.RunFor(Duration::Seconds(1));
    return system.sim().UsedAllCpus(CpuUse::kUser);
  };
  const Cycles one = user_cycles(1);
  const Cycles four = user_cycles(4);
  EXPECT_GT(one, 0);
  // Four cores each running their own hog do ~4x the user work of one core — in fact
  // a hair more, because the global timer interrupt taxes only the boot core.
  EXPECT_GT(four, 3.9 * static_cast<double>(one));
  EXPECT_LT(four, 4.01 * static_cast<double>(one));
}

TEST(SmpDispatchTest, ThreadRunsOnlyOnItsAssignedCore) {
  SmpRig rig(2, MachineConfig{.dispatch_interval = Duration::Millis(1),
                              .charge_overheads = false});
  SimThread* hog = rig.Spawn("hog");
  ASSERT_EQ(hog->cpu(), 0);
  rig.machine->Migrate(hog, 1);
  rig.machine->Start();
  rig.sim.RunFor(Duration::Millis(50));
  EXPECT_EQ(rig.sim.cpu(0).Used(CpuUse::kUser), 0);
  EXPECT_EQ(rig.sim.cpu(1).Used(CpuUse::kUser),
            rig.sim.cpu(1).DurationToCycles(Duration::Millis(50)));
  EXPECT_EQ(hog->cpu(), 1);
}

TEST(SmpDispatchTest, WakeRoutesToAssignedCore) {
  SmpRig rig(2, MachineConfig{.dispatch_interval = Duration::Millis(1),
                              .charge_overheads = false});
  QueueRegistry queues;
  BoundedBuffer* q = queues.CreateQueue("q", 1'000);
  rig.machine->Attach(q);
  SimThread* consumer =
      rig.threads.Create("consumer", std::make_unique<ConsumerWork>(q, 1'000));
  rig.machine->Attach(consumer);
  rig.machine->Migrate(consumer, 1);
  rig.machine->Start();
  rig.sim.RunFor(Duration::Millis(10));
  ASSERT_EQ(consumer->state(), ThreadState::kBlocked);  // Empty queue.

  q->TryPush(100);  // External wake.
  rig.sim.RunFor(Duration::Millis(10));
  EXPECT_GT(consumer->total_cycles(), 0);
  EXPECT_EQ(consumer->cpu(), 1);
  EXPECT_EQ(rig.sim.cpu(0).Used(CpuUse::kUser), 0);
  EXPECT_GT(rig.sim.cpu(1).Used(CpuUse::kUser), 0);
}

// ---------------------------------------------------------------------------
// Controller: per-core admission and squish.
// ---------------------------------------------------------------------------

TEST(SmpControllerTest, AdmissionUsesPerCoreCapacity) {
  // Two 60% reservations overflow one core (threshold 0.95) but fit a 2-core
  // machine — admission steers the second to the other core.
  SystemConfig config;
  config.num_cpus = 2;
  System system(config);
  SimThread* rt1 = system.Spawn("rt1", std::make_unique<CpuHogWork>());
  SimThread* rt2 = system.Spawn("rt2", std::make_unique<CpuHogWork>());
  SimThread* rt3 = system.Spawn("rt3", std::make_unique<CpuHogWork>());
  EXPECT_TRUE(system.controller().AddRealTime(rt1, Proportion::Ppt(600), Duration::Millis(10)));
  EXPECT_TRUE(system.controller().AddRealTime(rt2, Proportion::Ppt(600), Duration::Millis(10)));
  EXPECT_NE(rt1->cpu(), rt2->cpu());
  // Both cores now carry 60% fixed; a third 60% fits nowhere.
  EXPECT_FALSE(system.controller().AddRealTime(rt3, Proportion::Ppt(600), Duration::Millis(10)));

  // The uniprocessor rejects the second reservation outright — per-core capacity is
  // what doubled the machine's admissible real-time load.
  System uni;
  SimThread* u1 = uni.Spawn("u1", std::make_unique<CpuHogWork>());
  SimThread* u2 = uni.Spawn("u2", std::make_unique<CpuHogWork>());
  EXPECT_TRUE(uni.controller().AddRealTime(u1, Proportion::Ppt(600), Duration::Millis(10)));
  EXPECT_FALSE(uni.controller().AddRealTime(u2, Proportion::Ppt(600), Duration::Millis(10)));
}

TEST(SmpControllerTest, SquishOperatesWithinEachCoresBudget) {
  SystemConfig config;
  config.num_cpus = 2;
  System system(config);
  std::vector<SimThread*> hogs;
  for (int i = 0; i < 4; ++i) {
    SimThread* hog = system.Spawn("hog" + std::to_string(i), std::make_unique<CpuHogWork>());
    system.controller().AddMiscellaneous(hog);
    hogs.push_back(hog);
  }
  system.Start();
  system.RunFor(Duration::Seconds(5));

  // Grants must respect each core's overload threshold, not a machine-wide one.
  const double threshold = system.controller().overload_threshold();
  double per_core_sum[2] = {0.0, 0.0};
  for (SimThread* hog : hogs) {
    ASSERT_GE(hog->cpu(), 0);
    ASSERT_LT(hog->cpu(), 2);
    per_core_sum[hog->cpu()] += system.controller().GrantedFraction(hog->id());
  }
  EXPECT_LE(per_core_sum[0], threshold + 1e-9);
  EXPECT_LE(per_core_sum[1], threshold + 1e-9);
  // Two hogs per core, each squished to roughly half a core — so the machine does
  // close to 2x one core's user work, which a machine-wide squish would cap at ~1x.
  const auto per_core_capacity =
      static_cast<double>(system.sim().cpu().DurationToCycles(Duration::Seconds(5)));
  const double agg_user =
      static_cast<double>(system.sim().UsedAllCpus(CpuUse::kUser)) / per_core_capacity;
  EXPECT_GT(agg_user, 1.4);
  for (SimThread* hog : hogs) {
    EXPECT_GT(system.controller().GrantedFraction(hog->id()), 0.35);
  }
}

TEST(SmpControllerTest, DeadlineMissOnSecondaryCoreReachesController) {
  // A reserved thread on core 1 that cannot obtain its entitlement (core 1's ticks
  // are eaten by stolen overhead) must still trigger the controller's adaptive
  // admission backoff — i.e. core 1's RbsScheduler is wired to the controller.
  SystemConfig config;
  config.num_cpus = 2;
  System system(config);
  SimThread* rt = system.Spawn("rt", std::make_unique<CpuHogWork>());
  ASSERT_TRUE(system.controller().AddRealTime(rt, Proportion::Ppt(500), Duration::Millis(10)));
  system.machine().Migrate(rt, 1);
  const double before = system.controller().overload_threshold();
  system.Start();
  // Steal far more than core 1 can deliver, so every period ends short.
  for (int i = 0; i < 50; ++i) {
    system.machine().StealCycles(CpuUse::kTimer, 40'000'000, /*core=*/1);
    system.RunFor(Duration::Millis(20));
  }
  EXPECT_GT(rt->deadline_misses(), 0);
  EXPECT_LT(system.controller().overload_threshold(), before);
}

// ---------------------------------------------------------------------------
// The SMP scenario family.
// ---------------------------------------------------------------------------

// The SMP shape of the server farm: the paper's 400 MHz core and Fig. 6 pipeline
// shape (50 ppt producers, 400k cycles per 100-byte item, 2000 cycles per consumed
// byte, 4 KB queues), replicated.
ServerFarmParams SmpFarm(int cpus, int pipelines, int hogs) {
  ServerFarmParams params;
  params.num_cpus = cpus;
  params.num_pipelines = pipelines;
  params.num_hogs = hogs;
  params.clock_hz = 400e6;
  params.producer_proportion = Proportion::Ppt(50);
  params.producer_cycles_per_item = 400'000;
  params.bytes_per_item = 100.0;
  params.consumer_cycles_per_byte = 2'000;
  params.queue_bytes = 4'000;
  params.run_for = Duration::Seconds(2);
  return params;
}

TEST(SmpScenarioTest, DispatchThroughputGrowsFromOneToFourCores) {
  auto run = [](int cpus) { return RunServerFarmScenario(SmpFarm(cpus, 2 * cpus, cpus)); };
  const ServerFarmResult one = run(1);
  const ServerFarmResult four = run(4);
  // Same 2 s horizon on both sides, so the dispatch counts compare as throughputs.
  EXPECT_GT(four.total_dispatches, 3 * one.total_dispatches);
  EXPECT_GT(four.total_consumed_bytes, 3 * one.total_consumed_bytes);
  // Per-pipeline service quality holds while the machine scales.
  EXPECT_EQ(four.quality_exceptions, 0);
}

TEST(SmpScenarioTest, ScenarioIsDeterministic) {
  const ServerFarmParams params = SmpFarm(2, 4, 0);
  const ServerFarmResult a = RunServerFarmScenario(params);
  const ServerFarmResult b = RunServerFarmScenario(params);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.total_consumed_bytes, b.total_consumed_bytes);
}

}  // namespace
}  // namespace realrate
