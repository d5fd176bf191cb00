// Property-based and parameterized tests: squish feasibility, delivered reservations,
// convergence, no oversubscription, byte conservation and pressure bounds, swept over
// parameter spaces with TEST_P and seeded randomness (docs/TESTING.md, "Tier-1").
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "core/overload.h"
#include "core/pressure.h"
#include "exp/scenarios.h"
#include "exp/system.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/rate_schedule.h"

namespace realrate {
namespace {

// ---------------------------------------------------------------------------
// Squish properties over randomized request sets.
// ---------------------------------------------------------------------------

class SquishPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SquishPropertyTest, InvariantsHoldForRandomRequests) {
  Rng rng(GetParam());
  const int n = 1 + static_cast<int>(rng.NextBounded(12));
  std::vector<SquishRequest> requests;
  double floor_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    SquishRequest r;
    r.thread = i;
    r.floor = 0.002 + rng.NextDouble() * 0.01;
    r.desired = r.floor + rng.NextDouble() * 0.9;
    r.importance = 0.25 + rng.NextDouble() * 8.0;
    floor_sum += r.floor;
    requests.push_back(r);
  }
  const double available = rng.NextDouble(0.3, 1.0);
  const auto grants = Squish(requests, available);

  ASSERT_EQ(grants.size(), requests.size());
  double grant_sum = 0.0;
  double desired_sum = 0.0;
  for (size_t i = 0; i < grants.size(); ++i) {
    // Floors respected, desires never exceeded.
    EXPECT_GE(grants[i].granted, requests[i].floor - 1e-9);
    EXPECT_LE(grants[i].granted, requests[i].desired + 1e-9);
    grant_sum += grants[i].granted;
    desired_sum += requests[i].desired;
  }
  // Budget respected (floors may force an overshoot of `available`, never more).
  EXPECT_LE(grant_sum, std::max(available, floor_sum) + 1e-6);
  // No unnecessary squishing.
  if (desired_sum <= available) {
    EXPECT_NEAR(grant_sum, desired_sum, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SquishPropertyTest,
                         ::testing::Range<uint64_t>(1, 26));

// ---------------------------------------------------------------------------
// RBS proportions are honored across the (proportion, period) space.
// ---------------------------------------------------------------------------

class RbsProportionTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(RbsProportionTest, ReservedShareIsDelivered) {
  const int ppt = std::get<0>(GetParam());
  const int64_t period_ms = std::get<1>(GetParam());

  Simulator sim;
  ThreadRegistry threads;
  RbsScheduler rbs(sim.cpu());
  Machine machine(sim, rbs, threads,
                  MachineConfig{.dispatch_interval = Duration::Millis(1),
                                .charge_overheads = false});
  SimThread* hog = threads.Create("hog", std::make_unique<CpuHogWork>());
  SimThread* other = threads.Create("other", std::make_unique<CpuHogWork>());
  machine.Attach(hog);
  machine.Attach(other);
  rbs.SetReservation(hog, Proportion::Ppt(ppt), Duration::Millis(period_ms), sim.Now());

  machine.Start();
  sim.RunFor(Duration::Seconds(2));

  const double share = static_cast<double>(hog->total_cycles()) /
                       static_cast<double>(sim.cpu().DurationToCycles(Duration::Seconds(2)));
  // Delivered within one dispatch quantum per period of the target.
  const double quantum_slack =
      1.0 / static_cast<double>(period_ms) + 0.005;  // 1 ms per period.
  EXPECT_NEAR(share, ppt / 1000.0, quantum_slack);
  EXPECT_EQ(hog->deadline_misses(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RbsProportionTest,
    ::testing::Combine(::testing::Values(50, 200, 500, 800),
                       ::testing::Values<int64_t>(5, 10, 30, 100)));

// ---------------------------------------------------------------------------
// Closed-loop convergence across workload shapes.
// ---------------------------------------------------------------------------

struct ConvergenceCase {
  int64_t queue_bytes;
  Cycles consumer_cycles_per_byte;
  int producer_ppt;
};

class ConvergencePropertyTest : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(ConvergencePropertyTest, FillConvergesAndRateMatches) {
  const ConvergenceCase& c = GetParam();
  PipelineParams params;
  params.queue_bytes = c.queue_bytes;
  params.consumer_cycles_per_byte = c.consumer_cycles_per_byte;
  params.producer_proportion = Proportion::Ppt(c.producer_ppt);
  params.rising_widths = {};
  params.falling_widths = {};  // Constant rate: a pure regulation problem.
  params.run_for = Duration::Seconds(10);
  const PipelineResult r = RunPipelineScenario(params);

  // Expected steady rate: producer cycles/sec / cycles_per_item * bytes_per_item.
  const double rate = c.producer_ppt / 1000.0 * 400e6 / 400'000.0 * 100.0;
  const double measured = r.consumer_rate.MeanOver(TimePoint::FromNanos(6'000'000'000),
                                                   TimePoint::FromNanos(10'000'000'000));
  EXPECT_NEAR(measured, rate, rate * 0.1);

  // Fill level regulated near 1/2 (wider slack for small queues, where one item is a
  // large fill step).
  const double fill = r.fill_level.MeanOver(TimePoint::FromNanos(6'000'000'000),
                                            TimePoint::FromNanos(10'000'000'000));
  EXPECT_NEAR(fill, 0.5, 0.2);
  EXPECT_EQ(r.quality_exceptions, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvergencePropertyTest,
    ::testing::Values(ConvergenceCase{1'000, 2'000, 50}, ConvergenceCase{4'000, 2'000, 50},
                      ConvergenceCase{16'000, 2'000, 50}, ConvergenceCase{4'000, 500, 50},
                      ConvergenceCase{4'000, 8'000, 50}, ConvergenceCase{4'000, 2'000, 20},
                      ConvergenceCase{4'000, 2'000, 150}));

// ---------------------------------------------------------------------------
// The allocation sum invariant: at every controller sample, reserved + adaptive
// allocations stay within the overload threshold (plus ppt rounding).
// ---------------------------------------------------------------------------

class AllocationSumTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocationSumTest, NeverOversubscribed) {
  const int num_hogs = GetParam();
  System system;
  std::vector<SimThread*> all;
  for (int i = 0; i < num_hogs; ++i) {
    SimThread* t = system.Spawn("hog" + std::to_string(i), std::make_unique<CpuHogWork>());
    t->set_importance(1.0 + i);
    system.controller().AddMiscellaneous(t);
    all.push_back(t);
  }
  SimThread* rt = system.Spawn("rt", std::make_unique<CpuHogWork>());
  ASSERT_TRUE(system.controller().AddRealTime(rt, Proportion::Ppt(200), Duration::Millis(10)));
  all.push_back(rt);

  system.Start();
  for (int step = 0; step < 100; ++step) {
    system.RunFor(Duration::Millis(100));
    int total = 0;
    for (SimThread* t : all) {
      total += t->proportion().ppt();
    }
    EXPECT_LE(total, 950 + num_hogs + 1) << "at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(HogCounts, AllocationSumTest, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Byte conservation through pipelines of varying depth.
// ---------------------------------------------------------------------------

class PipelineDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineDepthTest, BytesConservedEndToEnd) {
  const int depth = GetParam();
  System system;
  std::vector<BoundedBuffer*> queues;
  for (int i = 0; i <= depth; ++i) {
    queues.push_back(system.CreateQueue("q" + std::to_string(i), 4'000));
  }
  SimThread* source = system.Spawn(
      "source", std::make_unique<ProducerWork>(queues[0], 400'000, RateSchedule(100.0)));
  system.queues().Register(queues[0], source->id(), QueueRole::kProducer);
  ASSERT_TRUE(
      system.controller().AddRealTime(source, Proportion::Ppt(50), Duration::Millis(10)));

  std::vector<SimThread*> stages;
  for (int i = 0; i < depth; ++i) {
    SimThread* stage = system.Spawn(
        "stage" + std::to_string(i),
        std::make_unique<PipelineStageWork>(queues[i], queues[i + 1], /*cycles_per_byte=*/200,
                                            /*amplification=*/1.0, /*chunk=*/100));
    system.queues().Register(queues[i], stage->id(), QueueRole::kConsumer);
    system.queues().Register(queues[i + 1], stage->id(), QueueRole::kProducer);
    system.controller().AddRealRate(stage);
    stages.push_back(stage);
  }
  SimThread* sink = system.Spawn(
      "sink", std::make_unique<ConsumerWork>(queues[depth], /*cycles_per_byte=*/200));
  system.queues().Register(queues[depth], sink->id(), QueueRole::kConsumer);
  system.controller().AddRealRate(sink);

  system.Start();
  system.RunFor(Duration::Seconds(10));

  // Conservation: everything pushed is either consumed downstream or still queued.
  for (int i = 0; i <= depth; ++i) {
    EXPECT_EQ(queues[i]->total_pushed() - queues[i]->total_popped(), queues[i]->fill());
  }
  // Liveness: the sink received most of what the source produced (10% in-flight slack).
  EXPECT_GT(sink->progress_units(), source->progress_units() * 9 / 10);
  // Every stage got a non-zero allocation (no starvation anywhere in the chain).
  for (SimThread* stage : stages) {
    EXPECT_GT(stage->proportion().ppt(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDepthTest, ::testing::Values(1, 2, 4, 6));

// ---------------------------------------------------------------------------
// Pressure bounds hold for arbitrary fill levels and role mixes.
// ---------------------------------------------------------------------------

class PressureBoundsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PressureBoundsTest, SummedPressureWithinLinkageBounds) {
  Rng rng(GetParam());
  QueueRegistry reg;
  const int queues = 1 + static_cast<int>(rng.NextBounded(4));
  int linkages = 0;
  for (int i = 0; i < queues; ++i) {
    BoundedBuffer* q = reg.CreateQueue("q" + std::to_string(i), 1'000);
    const auto fill = static_cast<int64_t>(rng.NextBounded(1'001));
    if (fill > 0) {
      q->TryPush(fill);
    }
    reg.Register(q, /*thread=*/7, rng.NextBool(0.5) ? QueueRole::kProducer
                                                    : QueueRole::kConsumer);
    ++linkages;
  }
  const double pressure = RawPressure(reg, 7);
  EXPECT_LE(pressure, 0.5 * linkages + 1e-12);
  EXPECT_GE(pressure, -0.5 * linkages - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PressureBoundsTest, ::testing::Range<uint64_t>(100, 120));

// ---------------------------------------------------------------------------
// Dispatch-overhead monotonicity across the frequency sweep.
// ---------------------------------------------------------------------------

class DispatchFrequencyTest : public ::testing::TestWithParam<double> {};

TEST_P(DispatchFrequencyTest, AvailabilityBelowUnityAndSane) {
  const DispatchOverheadPoint p =
      MeasureDispatchOverhead(GetParam(), Duration::Seconds(1));
  EXPECT_GT(p.cpu_available, 0.5);
  EXPECT_LT(p.cpu_available, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Frequencies, DispatchFrequencyTest,
                         ::testing::Values(100.0, 500.0, 2000.0, 8000.0));

}  // namespace
}  // namespace realrate
