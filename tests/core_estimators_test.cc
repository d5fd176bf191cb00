// Unit tests for the control laws: pressure computation (Fig. 3), proportion
// estimation (Fig. 4), period-estimation heuristic, and the squish policy.
#include <gtest/gtest.h>

#include "core/overload.h"
#include "core/period_estimator.h"
#include "core/pressure.h"
#include "core/proportion_estimator.h"
#include "queue/registry.h"

namespace realrate {
namespace {

constexpr double kDt = 0.01;

// --- Pressure (Figure 3) ---

TEST(PressureTest, ConsumerOfFullQueueHasMaxPositivePressure) {
  QueueRegistry reg;
  BoundedBuffer* q = reg.CreateQueue("q", 100);
  q->TryPush(100);
  reg.Register(q, 1, QueueRole::kConsumer);
  EXPECT_DOUBLE_EQ(RawPressure(reg, 1), 0.5);
}

TEST(PressureTest, ProducerOfFullQueueHasMaxNegativePressure) {
  QueueRegistry reg;
  BoundedBuffer* q = reg.CreateQueue("q", 100);
  q->TryPush(100);
  reg.Register(q, 1, QueueRole::kProducer);
  EXPECT_DOUBLE_EQ(RawPressure(reg, 1), -0.5);
}

TEST(PressureTest, HalfFullIsZeroForBothRoles) {
  QueueRegistry reg;
  BoundedBuffer* q = reg.CreateQueue("q", 100);
  q->TryPush(50);
  reg.Register(q, 1, QueueRole::kConsumer);
  reg.Register(q, 2, QueueRole::kProducer);
  EXPECT_DOUBLE_EQ(RawPressure(reg, 1), 0.0);
  EXPECT_DOUBLE_EQ(RawPressure(reg, 2), 0.0);
}

TEST(PressureTest, EmptyQueuePushesProducerForward) {
  QueueRegistry reg;
  BoundedBuffer* q = reg.CreateQueue("q", 100);
  reg.Register(q, 1, QueueRole::kProducer);
  reg.Register(q, 2, QueueRole::kConsumer);
  EXPECT_DOUBLE_EQ(RawPressure(reg, 1), 0.5);   // Producer should speed up.
  EXPECT_DOUBLE_EQ(RawPressure(reg, 2), -0.5);  // Consumer should slow down.
}

TEST(PressureTest, PipelineStageSumsBothQueues) {
  QueueRegistry reg;
  BoundedBuffer* in = reg.CreateQueue("in", 100);
  BoundedBuffer* out = reg.CreateQueue("out", 100);
  in->TryPush(100);  // Input full: +1/2 as consumer.
  // Output empty: +1/2 as producer.
  reg.Register(in, 1, QueueRole::kConsumer);
  reg.Register(out, 1, QueueRole::kProducer);
  EXPECT_DOUBLE_EQ(RawPressure(reg, 1), 1.0);
}

TEST(PressureTest, UnregisteredThreadHasZeroPressure) {
  QueueRegistry reg;
  EXPECT_DOUBLE_EQ(RawPressure(reg, 42), 0.0);
}

// --- Proportion estimation (Figure 4) ---

TEST(ProportionEstimatorTest, PositivePressureGrowsAllocation) {
  ProportionEstimator est(ProportionEstimatorConfig{});
  double desired = 0.0;
  for (int i = 0; i < 50; ++i) {
    desired = est.Step(/*pressure=*/0.4, /*used_fraction=*/desired, /*granted=*/desired, kDt);
  }
  EXPECT_GT(desired, 0.1);
}

TEST(ProportionEstimatorTest, NegativePressureShrinksAllocation) {
  ProportionEstimator est(ProportionEstimatorConfig{});
  for (int i = 0; i < 50; ++i) {
    est.Step(0.4, est.desired(), est.desired(), kDt);
  }
  const double high = est.desired();
  for (int i = 0; i < 50; ++i) {
    est.Step(-0.4, est.desired(), est.desired(), kDt);
  }
  EXPECT_LT(est.desired(), high);
}

TEST(ProportionEstimatorTest, ClampsToFloorAndCeiling) {
  ProportionEstimator est(ProportionEstimatorConfig{});
  for (int i = 0; i < 2000; ++i) {
    est.Step(0.5, est.desired(), est.desired(), kDt);
  }
  EXPECT_LE(est.desired(), 0.95);
  ProportionEstimator shrink(ProportionEstimatorConfig{});
  for (int i = 0; i < 2000; ++i) {
    shrink.Step(-0.5, shrink.desired(), shrink.desired(), kDt);
  }
  EXPECT_GE(shrink.desired(), 0.005);
}

TEST(ProportionEstimatorTest, ReclaimTriggersAfterPatience) {
  static_assert(ProportionEstimator::kReclaimPatience == 3);
  ProportionEstimatorConfig config;
  config.reclaim_step = 0.01;
  ProportionEstimator est(config);
  // Pump the allocation up.
  for (int i = 0; i < 100; ++i) {
    est.Step(0.4, est.desired(), est.desired(), kDt);
  }
  const double inflated = est.desired();
  ASSERT_GT(inflated, 0.1);
  // Now the thread uses almost nothing (a bottleneck elsewhere). Zero pressure keeps
  // the PID from changing its mind; the usage comparison must claw back allocation.
  int reclaims = 0;
  for (int i = 0; i < 30; ++i) {
    est.Step(0.0, /*used_fraction=*/0.0, /*granted=*/inflated, kDt);
    reclaims += est.reclaimed_last_step() ? 1 : 0;
  }
  EXPECT_GE(reclaims, 5);  // Every `patience` steps.
  EXPECT_LT(est.desired(), inflated);
}

TEST(ProportionEstimatorTest, NoReclaimWhenAllocationIsUsed) {
  ProportionEstimatorConfig config;
  ProportionEstimator est(config);
  for (int i = 0; i < 100; ++i) {
    // Fully used allocation: never "too generous".
    est.Step(0.1, /*used_fraction=*/est.desired(), /*granted=*/est.desired(), kDt);
    EXPECT_FALSE(est.reclaimed_last_step());
  }
}

TEST(ProportionEstimatorTest, ReclaimIsBumpless) {
  ProportionEstimator est(ProportionEstimatorConfig{});
  for (int i = 0; i < 100; ++i) {
    est.Step(0.4, est.desired(), est.desired(), kDt);
  }
  // Let the input low-pass filter drain at zero pressure (full use, so no reclaim yet)
  // so the continuity check below isn't confounded by filter memory.
  for (int i = 0; i < 50; ++i) {
    est.Step(0.0, est.desired(), est.desired(), kDt);
  }
  // kReclaimPatience under-used steps force the reclaim branch on the last one.
  for (int i = 0; i < ProportionEstimator::kReclaimPatience; ++i) {
    est.Step(0.0, 0.0, est.desired(), kDt);
  }
  ASSERT_TRUE(est.reclaimed_last_step());
  const double after_reclaim = est.desired();
  // The next on-target step must continue from the reduced value (modulo a small
  // derivative transient), not bounce back to the inflated one.
  est.Step(0.0, after_reclaim, after_reclaim, kDt);
  EXPECT_LE(est.desired(), after_reclaim + 0.02);
  EXPECT_GE(est.desired(), after_reclaim - 0.1);
}

TEST(ProportionEstimatorTest, ResetRestoresFloor) {
  ProportionEstimator est(ProportionEstimatorConfig{});
  for (int i = 0; i < 100; ++i) {
    est.Step(0.4, est.desired(), est.desired(), kDt);
  }
  est.Reset();
  EXPECT_DOUBLE_EQ(est.desired(), 0.005);
}

// --- Period estimation (§3.3) ---

TEST(PeriodEstimatorTest, SmallProportionDoublesPeriod) {
  PeriodEstimator est;
  const Duration proposed = est.Propose(Duration::Millis(30), /*allocation=*/0.01);
  EXPECT_EQ(proposed, Duration::Millis(60));
}

TEST(PeriodEstimatorTest, PeriodCappedAtMax) {
  static_assert(PeriodEstimator::kMaxPeriod == Duration::Millis(240));
  PeriodEstimator est;
  EXPECT_EQ(est.Propose(Duration::Millis(160), 0.01), Duration::Millis(240));
}

TEST(PeriodEstimatorTest, JitterHalvesPeriod) {
  static_assert(PeriodEstimator::kWindow == 8 && PeriodEstimator::kJitterThreshold == 0.25);
  PeriodEstimator est;
  for (int i = 0; i < 8; ++i) {
    est.ObserveFillSwing(0.6);
  }
  EXPECT_EQ(est.Propose(Duration::Millis(40), 0.2), Duration::Millis(20));
}

TEST(PeriodEstimatorTest, JitterTakesPrecedenceOverQuantization) {
  PeriodEstimator est;
  for (int i = 0; i < PeriodEstimator::kWindow; ++i) {
    est.ObserveFillSwing(0.9);
  }
  // Small allocation would double, but jitter wins and halves.
  EXPECT_EQ(est.Propose(Duration::Millis(40), 0.01), Duration::Millis(20));
}

TEST(PeriodEstimatorTest, SteadyAdequateThreadKeepsPeriod) {
  PeriodEstimator est;
  est.ObserveFillSwing(0.05);
  EXPECT_EQ(est.Propose(Duration::Millis(30), 0.2), Duration::Millis(30));
}

TEST(PeriodEstimatorTest, PeriodFlooredAtMin) {
  static_assert(PeriodEstimator::kMinPeriod == Duration::Millis(5));
  PeriodEstimator est;
  for (int i = 0; i < PeriodEstimator::kWindow; ++i) {
    est.ObserveFillSwing(0.9);
  }
  EXPECT_EQ(est.Propose(Duration::Millis(8), 0.5), Duration::Millis(5));
}

// --- Squish (overload policy) ---

TEST(SquishTest, UnderCapacityGrantsEverything) {
  const auto grants = Squish({{1, 0.3, 1.0, 0.01}, {2, 0.4, 1.0, 0.01}}, 0.9);
  EXPECT_DOUBLE_EQ(grants[0].granted, 0.3);
  EXPECT_DOUBLE_EQ(grants[1].granted, 0.4);
}

TEST(SquishTest, ProportionalSquishWithEqualImportance) {
  // Two equal threads wanting 0.6 each into 0.9: each gets 0.45.
  const auto grants = Squish({{1, 0.6, 1.0, 0.01}, {2, 0.6, 1.0, 0.01}}, 0.9);
  EXPECT_NEAR(grants[0].granted, 0.45, 1e-9);
  EXPECT_NEAR(grants[1].granted, 0.45, 1e-9);
}

TEST(SquishTest, SumNeverExceedsAvailable) {
  const auto grants =
      Squish({{1, 0.9, 1.0, 0.005}, {2, 0.8, 2.0, 0.005}, {3, 0.7, 0.5, 0.005}}, 0.9);
  double sum = 0.0;
  for (const auto& g : grants) {
    sum += g.granted;
  }
  EXPECT_LE(sum, 0.9 + 1e-9);
}

TEST(SquishTest, ImportanceWeightsTheReduction) {
  // "For two jobs that both desire more than the available CPU, the more important job
  // will end up with the higher percentage."
  const auto grants = Squish({{1, 0.9, 4.0, 0.005}, {2, 0.9, 1.0, 0.005}}, 0.9);
  EXPECT_GT(grants[0].granted, grants[1].granted);
  // Reductions are proportional to desired/importance: r1/r2 == (1/4).
  const double r1 = 0.9 - grants[0].granted;
  const double r2 = 0.9 - grants[1].granted;
  EXPECT_NEAR(r1 / r2, 0.25, 1e-6);
}

TEST(SquishTest, MoreImportantCannotStarveLesser) {
  // Importance is not priority: the lesser job keeps at least its floor.
  const auto grants = Squish({{1, 0.9, 100.0, 0.01}, {2, 0.9, 1.0, 0.01}}, 0.5);
  EXPECT_GE(grants[1].granted, 0.01 - 1e-12);
  EXPECT_GT(grants[0].granted, grants[1].granted);
}

TEST(SquishTest, FloorExcessRedistributes) {
  // Thread 1 pinned at its floor; thread 2 absorbs the rest of the reduction but the
  // sum still lands on the budget.
  const auto grants = Squish({{1, 0.1, 1.0, 0.09}, {2, 0.9, 1.0, 0.005}}, 0.5);
  double sum = 0.0;
  for (const auto& g : grants) {
    sum += g.granted;
  }
  EXPECT_NEAR(sum, 0.5, 1e-6);
  EXPECT_GE(grants[0].granted, 0.09 - 1e-12);
}

TEST(SquishTest, GrantedNeverExceedsDesired) {
  const auto grants = Squish({{1, 0.2, 1.0, 0.01}, {2, 0.9, 1.0, 0.01}}, 0.5);
  EXPECT_LE(grants[0].granted, 0.2 + 1e-12);
  EXPECT_LE(grants[1].granted, 0.9 + 1e-12);
}

TEST(SquishTest, EmptyRequestsOk) {
  EXPECT_TRUE(Squish({}, 0.9).empty());
}

TEST(AdmissionTest, AcceptsWithinThresholdRejectsBeyond) {
  EXPECT_TRUE(AdmitRealTime(0.5, 0.4, 0.95));
  EXPECT_TRUE(AdmitRealTime(0.5, 0.45, 0.95));
  EXPECT_FALSE(AdmitRealTime(0.5, 0.46, 0.95));
  EXPECT_TRUE(AdmitRealTime(0.0, 0.0, 0.95));
}

}  // namespace
}  // namespace realrate
