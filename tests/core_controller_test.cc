// FeedbackAllocator behaviour on a live simulated system: registration/admission,
// adaptation of real-rate and miscellaneous threads, squishing, quality exceptions.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/system.h"
#include "harness/invariants.h"
#include "util/stats.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/rate_schedule.h"

namespace realrate {
namespace {

TEST(ControllerTest, RealTimeAdmissionControl) {
  System system{};
  SimThread* a = system.Spawn("a", std::make_unique<CpuHogWork>());
  SimThread* b = system.Spawn("b", std::make_unique<CpuHogWork>());
  SimThread* c = system.Spawn("c", std::make_unique<CpuHogWork>());
  EXPECT_TRUE(system.controller().AddRealTime(a, Proportion::Ppt(500), Duration::Millis(10)));
  EXPECT_TRUE(system.controller().AddRealTime(b, Proportion::Ppt(400), Duration::Millis(20)));
  // 0.5 + 0.4 + 0.2 > 0.95: rejected.
  EXPECT_FALSE(system.controller().AddRealTime(c, Proportion::Ppt(200), Duration::Millis(10)));
  EXPECT_EQ(system.controller().controlled_count(), 2u);
  EXPECT_DOUBLE_EQ(system.controller().FixedReservedSum(), 0.9);
}

TEST(ControllerTest, RealTimeReservationIsNotAdapted) {
  System system{};
  SimThread* rt = system.Spawn("rt", std::make_unique<CpuHogWork>());
  ASSERT_TRUE(system.controller().AddRealTime(rt, Proportion::Ppt(300), Duration::Millis(10)));
  system.Start();
  system.RunFor(Duration::Seconds(2));
  EXPECT_EQ(rt->proportion().ppt(), 300);
  EXPECT_EQ(rt->period(), Duration::Millis(10));
  const double share = static_cast<double>(rt->total_cycles()) /
                       static_cast<double>(system.sim().cpu().DurationToCycles(Duration::Seconds(2)));
  EXPECT_NEAR(share, 0.30, 0.02);
}

TEST(ControllerTest, AperiodicRealTimeGetsDefaultPeriod) {
  System system{};
  SimThread* t = system.Spawn("t", std::make_unique<CpuHogWork>());
  ASSERT_TRUE(system.controller().AddAperiodicRealTime(t, Proportion::Ppt(200)));
  EXPECT_EQ(t->period(), Duration::Millis(30));  // The paper's default.
  EXPECT_EQ(system.controller().ClassOf(t->id()), ThreadClass::kAperiodicRealTime);
}

TEST(ControllerTest, MiscellaneousHogGrowsTowardAvailableCapacity) {
  System system{};
  SimThread* hog = system.Spawn("hog", std::make_unique<CpuHogWork>());
  system.controller().AddMiscellaneous(hog);
  system.Start();
  system.RunFor(Duration::Seconds(10));
  // Constant pressure with nothing competing: the hog's allocation keeps growing
  // toward the ceiling.
  EXPECT_GT(hog->proportion().ppt(), 500);
}

TEST(ControllerTest, TwoMiscHogsConvergeToEqualShares) {
  System system{};
  SimThread* a = system.Spawn("a", std::make_unique<CpuHogWork>());
  SimThread* b = system.Spawn("b", std::make_unique<CpuHogWork>());
  system.controller().AddMiscellaneous(a);
  system.controller().AddMiscellaneous(b);
  system.Start();
  system.RunFor(Duration::Seconds(20));
  // "In the absence of other information, this policy results in equal allocation of
  // the CPU to all competing jobs over time."
  EXPECT_NEAR(a->proportion().ppt(), b->proportion().ppt(), 60);
  EXPECT_LE(a->proportion().ppt() + b->proportion().ppt(), 960);
}

TEST(ControllerTest, ImportanceGivesWeightedShares) {
  System system{};
  SimThread* big = system.Spawn("big", std::make_unique<CpuHogWork>());
  SimThread* small = system.Spawn("small", std::make_unique<CpuHogWork>());
  big->set_importance(3.0);
  system.controller().AddMiscellaneous(big);
  system.controller().AddMiscellaneous(small);
  system.Start();
  system.RunFor(Duration::Seconds(20));
  EXPECT_GT(big->proportion().ppt(), small->proportion().ppt() + 100);
  EXPECT_GT(small->proportion().ppt(), 0);  // Never starved.
}

TEST(ControllerTest, SquishKeepsTotalUnderThreshold) {
  System system{};
  std::vector<SimThread*> hogs;
  for (int i = 0; i < 4; ++i) {
    SimThread* t = system.Spawn("hog" + std::to_string(i), std::make_unique<CpuHogWork>());
    system.controller().AddMiscellaneous(t);
    hogs.push_back(t);
  }
  system.Start();
  system.RunFor(Duration::Seconds(15));
  int total = 0;
  for (SimThread* t : hogs) {
    total += t->proportion().ppt();
  }
  // Allow one ppt of round-to-nearest slack per squished thread.
  EXPECT_LE(total, 950 + static_cast<int>(hogs.size()));
  EXPECT_GT(system.controller().squish_events(), 0);
}

TEST(ControllerTest, RealRateConsumerTracksProducerRate) {
  System system{};
  BoundedBuffer* q = system.CreateQueue("pipe", 4'000);
  SimThread* producer = system.Spawn(
      "producer", std::make_unique<ProducerWork>(q, 400'000, RateSchedule(100.0)));
  SimThread* consumer =
      system.Spawn("consumer", std::make_unique<ConsumerWork>(q, 2'000));
  system.queues().Register(q, producer->id(), QueueRole::kProducer);
  system.queues().Register(q, consumer->id(), QueueRole::kConsumer);
  ASSERT_TRUE(system.controller().AddRealTime(producer, Proportion::Ppt(50),
                                              Duration::Millis(10)));
  system.controller().AddRealRate(consumer);
  system.Start();
  system.RunFor(Duration::Seconds(8));

  // Producer: 5% of 400 MHz / 400k cycles/item = 50 items/s * 100 B = 5000 B/s.
  // Consumer must match: 5000 B/s * 2000 cyc/B = 10 Mcyc/s = 2.5% => 25 ppt. The
  // instantaneous allocation carries a small quantization limit cycle, so compare the
  // time-averaged allocation and delivered rate.
  RunningStats alloc;
  RunningStats fill;
  const int64_t bytes_before = consumer->progress_units();
  for (int i = 0; i < 40; ++i) {
    system.RunFor(Duration::Millis(50));
    alloc.Add(consumer->proportion().ppt());
    fill.Add(q->FillFraction());
  }
  const double measured_rate =
      static_cast<double>(consumer->progress_units() - bytes_before) / 2.0;
  EXPECT_NEAR(alloc.mean(), 25, 8);
  EXPECT_NEAR(fill.mean(), 0.5, 0.15);
  EXPECT_NEAR(measured_rate, 5000.0, 500.0);
}

TEST(ControllerTest, QualityExceptionFiresWhenDemandIsInfeasible) {
  System system{};

  BoundedBuffer* q = system.CreateQueue("pipe", 2'000);
  // Producer floods; consumer needs ~190% of the CPU to keep up => impossible.
  SimThread* producer = system.Spawn(
      "producer", std::make_unique<ProducerWork>(q, 100'000, RateSchedule(200.0)));
  SimThread* consumer =
      system.Spawn("consumer", std::make_unique<ConsumerWork>(q, 10'000));
  system.queues().Register(q, producer->id(), QueueRole::kProducer);
  system.queues().Register(q, consumer->id(), QueueRole::kConsumer);
  ASSERT_TRUE(system.controller().AddRealTime(producer, Proportion::Ppt(100),
                                              Duration::Millis(10)));
  system.controller().AddRealRate(consumer);

  int64_t exceptions_seen = 0;
  system.controller().SetQualityExceptionFn([&](const QualityException& e) {
    ++exceptions_seen;
    EXPECT_EQ(e.thread, consumer);
    EXPECT_EQ(e.queue, q);
  });
  system.Start();
  system.RunFor(Duration::Seconds(5));
  EXPECT_GT(exceptions_seen, 0);
  EXPECT_EQ(system.controller().quality_exceptions(), exceptions_seen);
}

TEST(ControllerTest, AdaptiveAdmissionShrinksThresholdOnMisses) {
  System system{};
  const double before = system.controller().overload_threshold();

  // Oversubscribed real-time pair (admitted separately under the threshold, but with a
  // CPU-heavy dispatch they cannot both be served; misses follow).
  SimThread* a = system.Spawn("a", std::make_unique<CpuHogWork>());
  SimThread* b = system.Spawn("b", std::make_unique<CpuHogWork>());
  ASSERT_TRUE(system.controller().AddRealTime(a, Proportion::Ppt(500), Duration::Millis(2)));
  ASSERT_TRUE(system.controller().AddRealTime(b, Proportion::Ppt(450), Duration::Millis(2)));
  system.Start();
  system.RunFor(Duration::Seconds(2));
  // With overheads charged, 95% of reservations cannot all be honored: threshold drops.
  EXPECT_LT(system.controller().overload_threshold(), before);
}

TEST(ControllerTest, RemoveStopsManagement) {
  System system{};
  SimThread* hog = system.Spawn("hog", std::make_unique<CpuHogWork>());
  system.controller().AddMiscellaneous(hog);
  system.Start();
  system.RunFor(Duration::Seconds(1));
  system.controller().Remove(hog);
  const auto ppt = hog->proportion().ppt();
  system.RunFor(Duration::Seconds(1));
  EXPECT_EQ(hog->proportion().ppt(), ppt);  // Frozen after removal.
  EXPECT_EQ(system.controller().controlled_count(), 0u);
}

TEST(ControllerTest, PeriodEstimationGrowsPeriodOfTinyAllocation) {
  ControllerConfig config;
  config.enable_period_estimation = true;
  SystemConfig sys_config;
  sys_config.controller = config;
  System system(sys_config);

  BoundedBuffer* q = system.CreateQueue("pipe", 100'000);
  // A trickle producer: the consumer needs well under 2% CPU, so quantization error
  // dominates and the period-estimation heuristic should stretch its period.
  SimThread* producer = system.Spawn(
      "producer", std::make_unique<ProducerWork>(q, 4'000'000, RateSchedule(100.0)));
  SimThread* consumer =
      system.Spawn("consumer", std::make_unique<ConsumerWork>(q, 1'000));
  system.queues().Register(q, producer->id(), QueueRole::kProducer);
  system.queues().Register(q, consumer->id(), QueueRole::kConsumer);
  ASSERT_TRUE(system.controller().AddRealTime(producer, Proportion::Ppt(50),
                                              Duration::Millis(10)));
  system.controller().AddRealRate(consumer);
  system.Start();
  system.RunFor(Duration::Seconds(5));
  EXPECT_GT(system.controller().PeriodOf(consumer->id()), Duration::Millis(30));
}

TEST(ControllerTest, IntrospectionOnUnknownThreadIsBenign) {
  System system{};
  EXPECT_DOUBLE_EQ(system.controller().DesiredFraction(99), 0.0);
  EXPECT_DOUBLE_EQ(system.controller().GrantedFraction(99), 0.0);
  EXPECT_EQ(system.controller().PeriodOf(99), Duration::Zero());
  EXPECT_FALSE(system.controller().ClassOf(99).has_value());
}

// --- Control-plane pipeline (staged RunOnce, budget ledger, id→slot index) ---

// Registration/removal at farm scale rides on the O(1) id→slot index and the ledger:
// 4k threads register, answer introspection, and remove (in an order that exercises
// the last-slot swap) without a single linear sweep.
TEST(ControllerScaleTest, FourThousandThreadsRegisterAndRemove) {
  SystemConfig config;
  config.num_cpus = 4;
  System system(config);
  constexpr int kThreads = 4'000;
  std::vector<SimThread*> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    SimThread* t = system.Spawn("t" + std::to_string(i), std::make_unique<CpuHogWork>());
    if (i % 4 == 0) {
      // Tiny fixed reservations interleaved so the ledger sees real Add/Remove flow.
      ASSERT_TRUE(system.controller().AddRealTime(t, Proportion::Ppt(1), Duration::Millis(10)));
    } else {
      system.controller().AddMiscellaneous(t);
    }
    threads.push_back(t);
  }
  EXPECT_EQ(system.controller().controlled_count(), static_cast<size_t>(kThreads));
  EXPECT_EQ(system.controller().ledger().fixed_ppt_total(), kThreads / 4);
  EXPECT_EQ(system.controller().ClassOf(threads[5]->id()), ThreadClass::kMiscellaneous);
  EXPECT_EQ(system.controller().ClassOf(threads[8]->id()), ThreadClass::kRealTime);

  // Remove evens front-to-back, odds back-to-front: every removal path (swap with a
  // surviving slot, swap with the last slot, pop of the last slot) gets hit.
  for (int i = 0; i < kThreads; i += 2) {
    system.controller().Remove(threads[static_cast<size_t>(i)]);
  }
  for (int i = kThreads - 1; i >= 1; i -= 2) {
    system.controller().Remove(threads[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(system.controller().controlled_count(), 0u);
  EXPECT_EQ(system.controller().ledger().fixed_ppt_total(), 0);
  EXPECT_FALSE(system.controller().ClassOf(threads[0]->id()).has_value());
  // Removing an already-removed thread is a no-op, and the set is reusable.
  system.controller().Remove(threads[0]);
  system.controller().AddMiscellaneous(threads[0]);
  EXPECT_EQ(system.controller().controlled_count(), 1u);
}

// The invariant oracle re-derives the controller's incremental state every tick
// (cached pressures against the queues, ledger sums, slab columns); the dirty-set
// sampler must show both clean skips (idle stretches) and dirty sweeps (active
// queueing) on a workload that ebbs, with every cached pressure matching.
TEST(ControllerPipelineTest, OracleAgreesAcrossCleanAndDirtySamples) {
  InvariantOracle oracle;  // Outlives the system it observes.
  System system{};
  oracle.Observe(system);
  BoundedBuffer* q = system.CreateQueue("pipe", 4'000);
  SimThread* producer = system.Spawn(
      "producer", std::make_unique<ProducerWork>(q, 4'000'000, RateSchedule(100.0)));
  SimThread* consumer = system.Spawn("consumer", std::make_unique<ConsumerWork>(q, 500));
  system.queues().Register(q, producer->id(), QueueRole::kProducer);
  system.queues().Register(q, consumer->id(), QueueRole::kConsumer);
  ASSERT_TRUE(system.controller().AddRealTime(producer, Proportion::Ppt(20),
                                              Duration::Millis(10)));
  system.controller().AddRealRate(consumer);
  system.Start();
  system.RunFor(Duration::Seconds(2));
  EXPECT_TRUE(oracle.ok()) << oracle.Summary();
  EXPECT_GT(oracle.controller_checks(), 0);
  EXPECT_GT(system.controller().dirty_samples(), 0);
  // A trickle producer leaves the consumer's queue untouched between most 10 ms
  // controller ticks: the dirty-set sampler must actually skip.
  EXPECT_GT(system.controller().clean_samples(), 0);
}

// The ledger's event-maintained fixed sums must survive rebalancer migrations:
// deliberately stacking every reservation onto two of four cores, past the
// rebalancer's over-subscription threshold, forces the greedy rebalance pass to
// re-home reservations through Machine::Migrate (and the controller's migration
// hook -> BudgetLedger::MoveFixed), while the invariant oracle compares every
// core's ledger sum with a fresh scan of the fixed-class threads after every
// controller tick. The adaptive hogs keep every core's squish active.
TEST(ControllerPipelineTest, OracleScanAgreesAcrossRebalancerMigrationStorm) {
  InvariantOracle oracle;  // Outlives the system it observes.
  SystemConfig config;
  config.num_cpus = 4;
  System system(config);
  oracle.Observe(system);
  std::vector<SimThread*> rts;
  for (int i = 0; i < 8; ++i) {
    SimThread* rt = system.Spawn("rt" + std::to_string(i), std::make_unique<CpuHogWork>());
    ASSERT_TRUE(
        system.controller().AddRealTime(rt, Proportion::Ppt(230), Duration::Millis(10)));
    rts.push_back(rt);
  }
  // Placement spreads reservations evenly; undo that by stacking all eight onto
  // cores 0 and 1 (920 ppt each, over the 900 ppt rebalance threshold; cores 2 and
  // 3 idle) before the machine starts. Each forced move runs the migration hook,
  // so the ledger tracks the skew too.
  static_assert(4 * 0.230 > Machine::kRebalanceThreshold);
  for (size_t i = 0; i < rts.size(); ++i) {
    system.machine().Migrate(rts[i], i < 4 ? 0 : 1);
  }
  for (int i = 0; i < 4; ++i) {
    SimThread* hog = system.Spawn("hog" + std::to_string(i), std::make_unique<CpuHogWork>());
    system.controller().AddMiscellaneous(hog);
  }
  system.Start();
  // Twenty 100 ms rebalance passes.
  system.RunFor(Duration::Seconds(2));
  EXPECT_GT(system.machine().migrations(), 0);
  EXPECT_TRUE(oracle.ok()) << oracle.Summary();
  EXPECT_GT(oracle.controller_checks(), 0);
  // Reserved load (fixed reservations plus the hogs' adaptive grants) is still
  // spread over every core: the rebalancer did not strand the forced skew.
  double spread_min = 1.0;
  for (CpuId c = 0; c < 4; ++c) {
    spread_min = std::min(spread_min, system.machine().ReservedFractionOn(c));
  }
  EXPECT_GT(spread_min, 0.0);
}

// --- Lifecycle edges ---

// Removing a thread mid-run freezes it; re-adding under a different class resumes
// management with fresh estimator state.
TEST(ControllerLifecycleTest, RemoveMidRunThenReAddUnderAnotherClass) {
  System system{};
  SimThread* hog = system.Spawn("hog", std::make_unique<CpuHogWork>());
  system.controller().AddMiscellaneous(hog);
  system.Start();
  system.RunFor(Duration::Seconds(2));
  EXPECT_GT(hog->proportion().ppt(), 100);  // Ramped as miscellaneous.
  system.controller().Remove(hog);
  system.RunFor(Duration::Seconds(1));

  // Re-add as a fixed real-time reservation: the controller now pins it.
  ASSERT_TRUE(system.controller().AddRealTime(hog, Proportion::Ppt(200), Duration::Millis(10)));
  EXPECT_EQ(system.controller().ClassOf(hog->id()), ThreadClass::kRealTime);
  EXPECT_EQ(system.controller().ledger().fixed_ppt_total(), 200);
  system.RunFor(Duration::Seconds(1));
  EXPECT_EQ(hog->proportion().ppt(), 200);  // Reservations are never adapted.
}

// A quality-exception victim can be removed and re-added: the fresh registration
// starts with an empty evidence window and can raise exceptions again.
TEST(ControllerLifecycleTest, ReAddAfterQualityExceptionStartsFresh) {
  System system{};

  BoundedBuffer* q = system.CreateQueue("pipe", 2'000);
  // Producer floods; consumer needs ~190% of the CPU to keep up => impossible.
  SimThread* producer = system.Spawn(
      "producer", std::make_unique<ProducerWork>(q, 100'000, RateSchedule(200.0)));
  SimThread* consumer =
      system.Spawn("consumer", std::make_unique<ConsumerWork>(q, 10'000));
  system.queues().Register(q, producer->id(), QueueRole::kProducer);
  system.queues().Register(q, consumer->id(), QueueRole::kConsumer);
  ASSERT_TRUE(system.controller().AddRealTime(producer, Proportion::Ppt(100),
                                              Duration::Millis(10)));
  system.controller().AddRealRate(consumer);
  system.Start();
  system.RunFor(Duration::Seconds(3));
  const int64_t before = system.controller().quality_exceptions();
  ASSERT_GT(before, 0);

  system.controller().Remove(consumer);
  system.RunFor(Duration::Millis(500));
  EXPECT_EQ(system.controller().quality_exceptions(), before);  // Unmanaged: silent.

  system.controller().AddRealRate(consumer);
  EXPECT_EQ(system.controller().ClassOf(consumer->id()), ThreadClass::kRealRate);
  system.RunFor(Duration::Seconds(3));
  EXPECT_GT(system.controller().quality_exceptions(), before);  // Fires again.
}

// Deadline-miss backoff drives the admission threshold down to its floor; admission
// keeps honoring the shrunken threshold (and the controller keeps functioning) once
// the pressure source is removed.
TEST(ControllerLifecycleTest, AdmissionRecoversAtMinOverloadThreshold) {
  System system{};

  // Reserved pair at 95% plus a sustained overhead storm (half of every dispatch
  // tick's capacity stolen — the interrupt-load situation footnote 3's backoff is
  // for): the reservations cannot be served, so misses hammer the threshold down to
  // the floor.
  SimThread* a = system.Spawn("a", std::make_unique<CpuHogWork>());
  SimThread* b = system.Spawn("b", std::make_unique<CpuHogWork>());
  ASSERT_TRUE(system.controller().AddRealTime(a, Proportion::Ppt(500), Duration::Millis(2)));
  ASSERT_TRUE(system.controller().AddRealTime(b, Proportion::Ppt(450), Duration::Millis(2)));
  system.Start();
  const Cycles half_tick = system.sim().cpu().DurationToCycles(Duration::Millis(1)) / 2;
  for (int i = 0; i < 400; ++i) {
    system.machine().StealCycles(CpuUse::kController, half_tick);
    system.RunFor(Duration::Millis(2));
  }
  // From 0.95 to 0.5 in 0.002 steps takes at least 225 misses.
  EXPECT_GE(a->deadline_misses() + b->deadline_misses(), 225);
  ASSERT_DOUBLE_EQ(system.controller().overload_threshold(),
                   FeedbackAllocator::kMinOverloadThreshold);  // Clamped, never below.

  // Clear the overload and verify the recovered regime: admission answers against
  // the floor threshold, and adaptive threads still receive grants within it.
  system.controller().Remove(a);
  system.controller().Remove(b);
  EXPECT_EQ(system.controller().ledger().fixed_ppt_total(), 0);
  SimThread* small = system.Spawn("small", std::make_unique<CpuHogWork>());
  SimThread* large = system.Spawn("large", std::make_unique<CpuHogWork>());
  EXPECT_TRUE(system.controller().AddRealTime(small, Proportion::Ppt(450),
                                              Duration::Millis(10)));
  EXPECT_FALSE(system.controller().AddRealTime(large, Proportion::Ppt(100),
                                               Duration::Millis(10)));  // 0.55 > 0.5.
  SimThread* misc = system.Spawn("misc", std::make_unique<CpuHogWork>());
  system.controller().AddMiscellaneous(misc);
  system.RunFor(Duration::Seconds(2));
  EXPECT_GT(misc->proportion().ppt(), 0);
  EXPECT_LE(misc->proportion().ppt() + small->proportion().ppt(), 500 + 1);
}

}  // namespace
}  // namespace realrate
