// The src/harness subsystem: invariant oracle (catches injected violations, stays
// silent on healthy machines, perturbs nothing), seeded workload generator
// (replayable, feasible by construction), and the differential runner.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/system.h"
#include "harness/differential.h"
#include "harness/invariants.h"
#include "harness/workload_gen.h"
#include "sched/lottery.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "task/registry.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"

namespace realrate {
namespace {

// ---------------------------------------------------------------------------
// Invariant oracle.
// ---------------------------------------------------------------------------

TEST(InvariantOracleTest, CatchesInjectedProportionOverAllocation) {
  // Two 60% reservations forced onto the one core through the scheduler's raw
  // actuation interface, bypassing the controller's admission control — the oracle
  // must flag the infeasible 120% sum at the next tick.
  Simulator sim;
  ThreadRegistry threads;
  RbsScheduler rbs{sim.cpu()};
  Machine machine(sim, rbs, threads);
  InvariantOracle oracle;
  oracle.Observe(machine, /*queues=*/nullptr);

  SimThread* a = threads.Create("a", std::make_unique<CpuHogWork>());
  SimThread* b = threads.Create("b", std::make_unique<CpuHogWork>());
  machine.Attach(a);
  machine.Attach(b);
  rbs.SetReservation(a, Proportion::Ppt(600), Duration::Millis(10), sim.Now());
  rbs.SetReservation(b, Proportion::Ppt(600), Duration::Millis(10), sim.Now());

  machine.Start();
  sim.RunFor(Duration::Millis(50));

  EXPECT_FALSE(oracle.ok());
  EXPECT_GT(oracle.violation_count(), 0);
  ASSERT_FALSE(oracle.violations().empty());
  EXPECT_NE(oracle.violations().front().message.find("over-allocated"), std::string::npos);
  EXPECT_NE(oracle.Summary().find("over-allocated"), std::string::npos);
}

// A scheduler that hands the machine a thread it just marked blocked — the
// "dispatching a non-runnable thread" bug class the oracle must catch.
class LyingScheduler : public Scheduler {
 public:
  const char* name() const override { return "lying"; }
  void AddThread(SimThread* thread) override { threads_.push_back(thread); }
  void RemoveThread(SimThread* /*thread*/) override {}
  void OnTick(TimePoint /*now*/) override {}
  SimThread* PickNext(TimePoint /*now*/) override {
    for (SimThread* t : threads_) {
      if (t->IsRunnable() || t->state() == ThreadState::kBlocked) {
        t->set_state(ThreadState::kBlocked);
        return t;
      }
    }
    return nullptr;
  }
  Cycles MaxGrant(SimThread* /*thread*/, Cycles tick_remaining) override {
    return tick_remaining;
  }
  void OnRan(SimThread* /*thread*/, Cycles /*used*/, TimePoint /*now*/) override {}
  std::optional<TimePoint> ThrottleUntil(SimThread* /*thread*/, TimePoint /*now*/) override {
    return std::nullopt;
  }

 private:
  std::vector<SimThread*> threads_;
};

TEST(InvariantOracleTest, CatchesDispatchOfBlockedThread) {
  Simulator sim;
  ThreadRegistry threads;
  LyingScheduler liar;
  Machine machine(sim, liar, threads);
  InvariantOracle oracle;
  oracle.Observe(machine, /*queues=*/nullptr);

  SimThread* hog = threads.Create("hog", std::make_unique<CpuHogWork>());
  machine.Attach(hog);
  machine.Start();
  sim.RunFor(Duration::Millis(20));

  EXPECT_GT(oracle.violation_count(), 0);
  ASSERT_FALSE(oracle.violations().empty());
  EXPECT_NE(oracle.violations().front().message.find("state"), std::string::npos);
}

TEST(InvariantOracleTest, CatchesPickThatIsNotTheReservedBest) {
  // Two runnable reservations on one core: rate-monotonic order makes the 10 ms
  // thread the reserved best, so handing the CPU to the 20 ms one (or to an
  // unreserved thread) is a dispatch bug the pick oracle must report.
  InvariantOracle oracle;  // Outlives the system it observes.
  System system;
  oracle.Observe(system);
  SimThread* fast = system.Spawn("fast", std::make_unique<CpuHogWork>());
  SimThread* slow = system.Spawn("slow", std::make_unique<CpuHogWork>());
  SimThread* plain = system.Spawn("plain", std::make_unique<CpuHogWork>());
  ASSERT_TRUE(system.controller().AddRealTime(fast, Proportion::Ppt(100),
                                              Duration::Millis(10)));
  ASSERT_TRUE(system.controller().AddRealTime(slow, Proportion::Ppt(100),
                                              Duration::Millis(20)));
  const TimePoint now = system.sim().Now();

  oracle.OnPicked(system.machine(), 0, fast, now);
  EXPECT_TRUE(oracle.ok()) << oracle.Summary();
  oracle.OnPicked(system.machine(), 0, slow, now);
  oracle.OnPicked(system.machine(), 0, plain, now);
  EXPECT_EQ(oracle.violation_count(), 2);
  ASSERT_EQ(oracle.violations().size(), 2u);
  EXPECT_NE(oracle.violations()[0].message.find("reserved best is thread " +
                                                std::to_string(fast->id())),
            std::string::npos)
      << oracle.Summary();
  EXPECT_EQ(oracle.pick_checks(), 3);
  EXPECT_EQ(oracle.indexed_pick_checks(), 0);  // Three threads: the scan side.
}

TEST(InvariantOracleTest, CleanOnHealthySystemAndAllHooksFire) {
  // Declared before the system it observes: the system holds raw references to the
  // oracle, so the oracle must be destroyed last (see Observe's contract).
  InvariantOracle oracle;
  System system;
  system.sim().trace().SetEnabled(true);
  oracle.Observe(system);

  BoundedBuffer* q = system.CreateQueue("q", 1'000);
  SimThread* producer = system.Spawn(
      "producer", std::make_unique<ProducerWork>(q, 100'000, RateSchedule(100.0)));
  SimThread* consumer =
      system.Spawn("consumer", std::make_unique<ConsumerWork>(q, 1'000));
  system.queues().Register(q, producer->id(), QueueRole::kProducer);
  system.queues().Register(q, consumer->id(), QueueRole::kConsumer);
  ASSERT_TRUE(system.controller().AddRealTime(producer, Proportion::Ppt(100),
                                              Duration::Millis(10)));
  system.controller().AddRealRate(consumer);

  system.Start();
  system.RunFor(Duration::Millis(500));

  EXPECT_TRUE(oracle.ok()) << oracle.Summary();
  EXPECT_GT(oracle.ticks_observed(), 0);
  EXPECT_GT(oracle.picks_observed(), 0);
  EXPECT_GT(oracle.controller_runs_observed(), 0);
  EXPECT_EQ(oracle.pick_checks(), oracle.picks_observed());
  EXPECT_GT(oracle.controller_checks(), 0);
}

TEST(InvariantOracleTest, ObserverDoesNotPerturbTheSchedule) {
  auto run = [](bool with_oracle) {
    InvariantOracle oracle;  // Outlives the system it observes.
    System system;
    system.sim().trace().SetEnabled(true);
    if (with_oracle) {
      oracle.Observe(system);
    }
    SimThread* hog = system.Spawn("hog", std::make_unique<CpuHogWork>());
    system.controller().AddMiscellaneous(hog);
    system.Start();
    system.RunFor(Duration::Millis(300));
    return system.sim().trace().Hash();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Trace well-formedness.
// ---------------------------------------------------------------------------

TEST(TraceWellFormednessTest, AcceptsHealthyAndRejectsMalformedStreams) {
  TraceRecorder trace;
  trace.SetEnabled(true);
  trace.Record(TimePoint::FromNanos(10), TraceKind::kDispatch, 1, 500);
  trace.Record(TimePoint::FromNanos(10), TraceKind::kDispatch, 2, 0);  // Zero is legal.
  trace.Record(TimePoint::FromNanos(20), TraceKind::kBlock, 1, 0);
  EXPECT_EQ(trace.WellFormedError(), "");

  trace.Record(TimePoint::FromNanos(5), TraceKind::kWake, 1);  // Time went backwards.
  EXPECT_NE(trace.WellFormedError(), "");
  // Incremental validation from the malformed suffix also sees it (the boundary
  // event is compared against its predecessor).
  EXPECT_NE(trace.WellFormedError(3), "");
}

TEST(TraceWellFormednessTest, RejectsOutOfRangeArguments) {
  {
    TraceRecorder trace;
    trace.SetEnabled(true);
    trace.Record(TimePoint::FromNanos(1), TraceKind::kDispatch, 1, -5);
    EXPECT_NE(trace.WellFormedError(), "");
  }
  {
    TraceRecorder trace;
    trace.SetEnabled(true);
    trace.Record(TimePoint::FromNanos(1), TraceKind::kAllocationSet, 1, 1'500, 1'000);
    EXPECT_NE(trace.WellFormedError(), "");
  }
  {
    TraceRecorder trace;
    trace.SetEnabled(true);
    trace.Record(TimePoint::FromNanos(1), TraceKind::kMigrate, 1, 2, 2);  // from == to.
    EXPECT_NE(trace.WellFormedError(), "");
  }
  {
    TraceRecorder trace;
    trace.SetEnabled(true);
    trace.Record(TimePoint::FromNanos(1), TraceKind::kExit, kInvalidThreadId);
    EXPECT_NE(trace.WellFormedError(), "");
  }
}

// ---------------------------------------------------------------------------
// Workload generator.
// ---------------------------------------------------------------------------

TEST(WorkloadGeneratorTest, SameSeedSameSpecDifferentSeedDifferentSpec) {
  const WorkloadSpec a = GenerateWorkload(12345);
  const WorkloadSpec b = GenerateWorkload(12345);
  EXPECT_EQ(a.ToString(), b.ToString());
  const WorkloadSpec c = GenerateWorkload(12346);
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(WorkloadGeneratorTest, GeneratedSpecsAreFeasibleByConstruction) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const WorkloadSpec spec = GenerateWorkload(seed);
    EXPECT_GE(spec.num_cpus, 1) << seed;
    EXPECT_LE(spec.num_cpus, 8) << seed;
    EXPECT_TRUE(spec.run_for.IsPositive()) << seed;
    if (spec.cluster.num_machines > 0) {
      // Cluster-bucket specs carry their whole load in the cluster-wide stream;
      // no closed-loop threads are required (or generated).
      EXPECT_FALSE(spec.open_loops.empty()) << seed;
    } else {
      EXPECT_FALSE(spec.pipelines.empty() && spec.hogs.empty() && spec.reservations.empty())
          << seed;
    }
    double fixed = 0.0;
    for (const PipelineSpec& p : spec.pipelines) {
      // Largest possible item (segments may double the base) must fit its queue, or a
      // producer could block forever on space that cannot exist.
      double max_item = p.bytes_per_item;
      for (const RateSegmentSpec& s : p.segments) {
        max_item = std::max(max_item, s.bytes_per_item);
      }
      EXPECT_LE(static_cast<int64_t>(max_item), p.source_queue_bytes) << seed;
      for (const StageSpec& s : p.stages) {
        EXPECT_LE(s.chunk_bytes, s.queue_bytes) << seed;
        EXPECT_GT(s.cycles_per_byte, 0) << seed;
      }
      EXPECT_GT(p.producer_cycles_per_item, 0) << seed;
      EXPECT_GT(p.consumer_cycles_per_byte, 0) << seed;
      fixed += p.producer_proportion.ToFraction();
    }
    for (const ReservationSpec& r : spec.reservations) {
      fixed += r.proportion.ToFraction();
      EXPECT_TRUE(r.period.IsPositive()) << seed;
    }
    // The generator's admission guarantee: fixed reservations never exceed 45% of
    // the machine, so the controller's least-loaded-core admission cannot reject.
    EXPECT_LE(fixed, 0.45 * spec.num_cpus + 1e-9) << seed;
  }
}

TEST(WorkloadGeneratorTest, ControlPlaneBucketCoversAllFiveClassesAtScale) {
  // The ~1-in-20 control-plane bucket must produce 1000+ controlled threads spanning
  // every paper class (real-time producers, real-rate consumers, miscellaneous hogs,
  // aperiodic real-time, interactive editors).
  int found = 0;
  for (uint64_t seed = 1; seed <= 200 && found < 3; ++seed) {
    const WorkloadSpec spec = GenerateWorkload(seed);
    if (spec.interactives.empty()) {
      continue;
    }
    ++found;
    EXPECT_FALSE(spec.pipelines.empty()) << seed;
    EXPECT_FALSE(spec.hogs.empty()) << seed;
    EXPECT_FALSE(spec.aperiodics.empty()) << seed;
    const size_t controlled = 2 * spec.pipelines.size() + spec.hogs.size() +
                              spec.aperiodics.size() + spec.interactives.size();
    EXPECT_GE(controlled, 1000u) << seed;
    EXPECT_GE(spec.num_cpus, 6) << seed;  // Feasibility floor for the class mix.
    for (const AperiodicSpec& a : spec.aperiodics) {
      EXPECT_GT(a.proportion.ppt(), 0) << seed;
    }
    for (const InteractiveSpec& e : spec.interactives) {
      EXPECT_GT(e.cycles_per_event, 0) << seed;
      EXPECT_TRUE(e.mean_think.IsPositive()) << seed;
    }
  }
  EXPECT_GE(found, 1) << "no control-plane bucket seed in 1..200";
}

TEST(DifferentialRunnerTest, ControllerOracleEngagesOnAControlPlaneBucketSeed) {
  // On a 1000+-thread all-classes spec, the oracle must re-derive the controller's
  // state every tick, the dirty-set sampler must skip clean threads, and the run
  // must stay violation-free.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const WorkloadSpec spec = GenerateWorkload(seed);
    if (spec.interactives.empty()) {
      continue;
    }
    const RunOutcome outcome = RunWorkload(spec, RunOptions{});
    EXPECT_EQ(outcome.violation_count, 0) << "seed " << seed;
    EXPECT_GT(outcome.controller_checks, 0) << "seed " << seed;
    EXPECT_GT(outcome.controller_clean_samples, 0) << "seed " << seed;
    return;
  }
  FAIL() << "no control-plane bucket seed in 1..200";
}

TEST(WorkloadGeneratorTest, ClusterBucketSpecsDescribeRoutableFarms) {
  // The ~1-in-16 cluster bucket: 2-4 machines, a positive epoch, and exactly one
  // cluster-wide open-loop stream whose largest request fits the per-node queues.
  int found = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const WorkloadSpec spec = GenerateWorkload(seed);
    if (spec.cluster.num_machines == 0) {
      continue;
    }
    ++found;
    EXPECT_GE(spec.cluster.num_machines, 2) << seed;
    EXPECT_LE(spec.cluster.num_machines, 4) << seed;
    EXPECT_TRUE(spec.cluster.epoch.IsPositive()) << seed;
    EXPECT_GE(spec.cluster.pressure_damping, 0.0) << seed;
    EXPECT_LT(spec.cluster.pressure_damping, 1.0) << seed;
    ASSERT_EQ(spec.open_loops.size(), 1u) << seed;
    const OpenLoopSpec& ol = spec.open_loops.front();
    EXPECT_GT(ol.num_workers, 0) << seed;
    EXPECT_LE(ol.arrivals.max_request_bytes, ol.worker_queue_bytes) << seed;
    EXPECT_LE(ol.arrivals.max_request_bytes, ol.listen_queue_bytes) << seed;
    EXPECT_GT(ol.arrivals.requests_per_sec, 0.0) << seed;
  }
  EXPECT_GE(found, 1) << "no cluster bucket seed in 1..200";
}

TEST(DifferentialRunnerTest, ClusterBucketSeedPassesItsBattery) {
  // The first cluster-bucket seed must pass the cluster differential battery:
  // M=1 pinned to a bare machine, host-thread invariance, rerun stability.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    if (GenerateWorkload(seed).cluster.num_machines == 0) {
      continue;
    }
    const SeedReport report = CheckSeed(seed);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                             << (report.failures.empty() ? "" : report.failures.front());
    return;
  }
  FAIL() << "no cluster bucket seed in 1..200";
}

TEST(DifferentialRunnerTest, MailboxBucketSeedStakesRoundsInTheEquivalencePass) {
  // The first mailbox-regime bucket seed must (a) pass its battery and (b) stake
  // queue ops through the per-core epoch mailboxes during the host-thread
  // equivalence pass — otherwise that pass's 1-vs-N equality is vacuous for
  // queue-driven rounds (only hog rounds would ever fan out).
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    if (!GenerateWorkload(seed).mailbox_regime) {
      continue;
    }
    SeedCheckOptions options;
    options.run_metamorphic = false;  // The pinned pass is 1e; keep the test cheap.
    options.equivalence_host_threads = 4;
    const SeedReport report = CheckSeed(seed, options);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                             << (report.failures.empty() ? "" : report.failures.front());
    EXPECT_GT(report.equivalence_parallel_rounds, 0) << "seed " << seed;
    EXPECT_GT(report.equivalence_mailbox_rounds, 0) << "seed " << seed;
    return;
  }
  FAIL() << "no mailbox-regime bucket seed in 1..200";
}

TEST(WorkloadGeneratorTest, DeriveSeedSeparatesComponents) {
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_EQ(DeriveSeed(99, 7), DeriveSeed(99, 7));
}

// ---------------------------------------------------------------------------
// Differential runner.
// ---------------------------------------------------------------------------

TEST(DifferentialRunnerTest, RunsAreReplayableFromTheSeed) {
  const WorkloadSpec spec = GenerateWorkload(77);
  for (const SchedulerKind kind :
       {SchedulerKind::kFeedbackRbs, SchedulerKind::kLottery, SchedulerKind::kMlfq,
        SchedulerKind::kFixedPriority}) {
    RunOptions options;
    options.kind = kind;
    options.run_for_override = Duration::Millis(200);
    const RunOutcome a = RunWorkload(spec, options);
    const RunOutcome b = RunWorkload(spec, options);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << ToString(kind);
    EXPECT_EQ(a.total_progress, b.total_progress) << ToString(kind);
    EXPECT_EQ(a.violation_count, 0) << ToString(kind);
  }
}

TEST(DifferentialRunnerTest, LotteryDrawsFromTheInjectedSeedOnly) {
  // Identical seeds replay bit-for-bit; a different workload seed changes the derived
  // lottery engine seeds and (with several runnable ticket-holders) the schedule.
  WorkloadSpec spec = GenerateWorkload(501);
  spec.pipelines.clear();
  spec.reservations.clear();
  spec.hogs = {{1'000, 1.0, 5, 100}, {1'000, 1.0, 5, 300}, {1'000, 1.0, 5, 200}};
  spec.num_cpus = 1;
  RunOptions options;
  options.kind = SchedulerKind::kLottery;
  options.run_for_override = Duration::Millis(100);
  const uint64_t hash_a = RunWorkload(spec, options).trace_hash;
  const uint64_t hash_a2 = RunWorkload(spec, options).trace_hash;
  EXPECT_EQ(hash_a, hash_a2);
  spec.seed = 502;  // Only the seed changes; the spec is otherwise identical.
  const uint64_t hash_b = RunWorkload(spec, options).trace_hash;
  EXPECT_NE(hash_a, hash_b);
}

TEST(DifferentialRunnerTest, PickOracleAgreesOnOneHundredSeeds) {
  // The pick-oracle pin for the dispatch hot path: across 100 generated workloads
  // (including the high-thread-count farm buckets), the oracle re-derives the best
  // reserved thread at every RBS dispatch and reports any pick that differs. The
  // counters prove the comparison actually ran, on both sides of the occupancy
  // switch.
  int64_t total_checks = 0;
  int64_t indexed_checks = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const WorkloadSpec spec = GenerateWorkload(seed);
    RunOptions options;
    options.run_for_override = Duration::Millis(120);
    const RunOutcome outcome = RunWorkload(spec, options);
    EXPECT_GT(outcome.pick_checks, 0) << "seed " << seed;
    EXPECT_EQ(outcome.violation_count, 0) << "seed " << seed;
    total_checks += outcome.pick_checks;
    indexed_checks += outcome.indexed_pick_checks;
  }
  EXPECT_GT(total_checks, 10'000);  // The pin has teeth: tens of thousands of picks.
  EXPECT_GT(indexed_checks, 0);
  EXPECT_LT(indexed_checks, total_checks);
}

TEST(DifferentialRunnerTest, PickOracleChecksIndexedPicksOnAHighThreadBucketSeed) {
  // Seed 11 draws the high-thread-count bucket (324 pipelines on five cores): its
  // cores cross the occupancy switch, so the oracle must check picks made from the
  // pick index, not only from the scan.
  const WorkloadSpec spec = GenerateWorkload(11);
  ASSERT_GE(spec.pipelines.size(), 256u);
  ASSERT_TRUE(spec.interactives.empty());
  const RunOutcome outcome = RunWorkload(spec, RunOptions{});
  EXPECT_EQ(outcome.violation_count, 0);
  EXPECT_GT(outcome.indexed_pick_checks, 0);
}

TEST(DifferentialRunnerTest, PickOracleChecksIndexedEdfPicksOnAHighThreadBucketSeed) {
  // The same seed under EDF: the index keys eligible threads by period deadline,
  // and the oracle re-derives every pick by a fresh earliest-deadline scan.
  const WorkloadSpec spec = GenerateWorkload(11);
  RunOptions edf;
  edf.rbs_order = DispatchOrder::kEarliestDeadlineFirst;
  const RunOutcome outcome = RunWorkload(spec, edf);
  EXPECT_EQ(outcome.violation_count, 0);
  EXPECT_GT(outcome.indexed_pick_checks, 0);
  EXPECT_NE(outcome.trace_hash, RunWorkload(spec, RunOptions{}).trace_hash);  // Order mattered.
  const SeedReport report = CheckSeed(11, SeedCheckOptions{.run_metamorphic = false});
  EXPECT_TRUE(report.ok()) << (report.ok() ? "" : report.failures.front());
  EXPECT_EQ(report.edf_indexed_pick_checks, outcome.indexed_pick_checks);
}

TEST(DifferentialRunnerTest, HostThreadsAreTraceInvariantOnOneHundredSeeds) {
  // The parallel-engine pin: across 100 generated workloads — every scheduler-
  // relevant bucket the generator produces, including the high-thread-count farms —
  // the feedback machine fanned out over 2 host threads reproduces the
  // single-threaded run exactly. Both sides run oracle-free: an installed checker
  // pins the machine to the sequential path, which would make the comparison
  // vacuous. The bounded run keeps 200 full-stack runs inside the suite budget.
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const WorkloadSpec spec = GenerateWorkload(seed);
    RunOptions base;
    base.attach_oracle = false;
    base.run_for_override = Duration::Millis(120);
    RunOptions fanned = base;
    fanned.host_threads = 2;
    const RunOutcome one = RunWorkload(spec, base);
    const RunOutcome two = RunWorkload(spec, fanned);
    ASSERT_EQ(one.trace_hash, two.trace_hash) << "seed " << seed;
    ASSERT_EQ(one.total_progress, two.total_progress) << "seed " << seed;
    ASSERT_EQ(one.dispatches, two.dispatches) << "seed " << seed;
  }
}

TEST(DifferentialRunnerTest, OracleDoesNotPerturbTheFeedbackSchedule) {
  // The hot-path re-derivations must be pure observers: the same spec with and
  // without the oracle produces the identical trace (the oracle shares the run with
  // the invariant battery, so any perturbation would silently weaken both).
  const WorkloadSpec spec = GenerateWorkload(321);
  RunOptions observed;
  observed.run_for_override = Duration::Millis(200);
  RunOptions plain = observed;
  plain.attach_oracle = false;
  const RunOutcome with_oracle = RunWorkload(spec, observed);
  EXPECT_GT(with_oracle.pick_checks, 0);
  EXPECT_EQ(RunWorkload(spec, plain).trace_hash, with_oracle.trace_hash);
}

TEST(DifferentialRunnerTest, CheckSeedPassesOnHealthySeeds) {
  for (const uint64_t seed : {7ull, 99ull, 1234ull}) {
    const SeedReport report = CheckSeed(seed);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n"
                             << (report.failures.empty() ? "" : report.failures.front());
  }
}

// ---------------------------------------------------------------------------
// Scenario-level lottery seeding (the unseeded-randomness sweep).
// ---------------------------------------------------------------------------

TEST(LotterySeedingTest, ScenarioReplaysFromExplicitSeed) {
  const StarvationResult a =
      RunStarvationScenario(SchedulerKind::kLottery, 4.0, Duration::Millis(500), 42);
  const StarvationResult b =
      RunStarvationScenario(SchedulerKind::kLottery, 4.0, Duration::Millis(500), 42);
  EXPECT_DOUBLE_EQ(a.favored_cpu, b.favored_cpu);
  EXPECT_DOUBLE_EQ(a.lesser_cpu, b.lesser_cpu);
}

}  // namespace
}  // namespace realrate
