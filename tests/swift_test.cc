#include <cmath>

#include <gtest/gtest.h>

#include "swift/components.h"
#include "swift/pid.h"

namespace realrate::swift {
namespace {

constexpr double kDt = 0.01;  // 100 Hz, the prototype's controller rate.

TEST(IntegratorTest, AccumulatesConstantInput) {
  Integrator integ(100.0);
  double out = 0.0;
  for (int i = 0; i < 100; ++i) {
    out = integ.Step(1.0, kDt);
  }
  EXPECT_NEAR(out, 1.0, 1e-9);  // integral of 1 over 1 second.
}

TEST(IntegratorTest, TrapezoidBeatsRectangleOnRamp) {
  // Integrating f(t) = t over [0, 1] should give 0.5; trapezoid is exact for ramps.
  Integrator integ(100.0);
  double out = 0.0;
  for (int i = 0; i <= 100; ++i) {
    out = integ.Step(i * kDt, kDt);
  }
  EXPECT_NEAR(out, 0.5, 0.006);
}

TEST(IntegratorTest, WindupClampHolds) {
  Integrator integ(0.5);
  for (int i = 0; i < 1000; ++i) {
    integ.Step(10.0, kDt);
  }
  EXPECT_DOUBLE_EQ(integ.value(), 0.5);
  // And the clamp is symmetric.
  for (int i = 0; i < 2000; ++i) {
    integ.Step(-10.0, kDt);
  }
  EXPECT_DOUBLE_EQ(integ.value(), -0.5);
}

TEST(IntegratorTest, SetValueClampsToLimit) {
  Integrator integ(1.0);
  integ.SetValue(5.0);
  EXPECT_DOUBLE_EQ(integ.value(), 1.0);
  integ.SetValue(-0.25);
  EXPECT_DOUBLE_EQ(integ.value(), -0.25);
}

TEST(DifferentiatorTest, FirstSampleIsZeroThenSlope) {
  Differentiator diff;
  EXPECT_DOUBLE_EQ(diff.Step(5.0, kDt), 0.0);
  EXPECT_NEAR(diff.Step(5.0 + 2.0 * kDt, kDt), 2.0, 1e-9);
}

TEST(DifferentiatorTest, ResetForgetsHistory) {
  Differentiator diff;
  diff.Step(5.0, kDt);
  diff.Reset();
  EXPECT_DOUBLE_EQ(diff.Step(100.0, kDt), 0.0);
}

TEST(LowPassFilterTest, PrimesAtFirstSample) {
  LowPassFilter lpf(0.1);
  EXPECT_DOUBLE_EQ(lpf.Step(3.0, kDt), 3.0);
}

TEST(LowPassFilterTest, ConvergesToConstantInput) {
  LowPassFilter lpf(0.1);
  lpf.Step(0.0, kDt);
  double out = 0.0;
  for (int i = 0; i < 200; ++i) {  // 2 seconds = 20 time constants.
    out = lpf.Step(1.0, kDt);
  }
  EXPECT_NEAR(out, 1.0, 1e-6);
}

TEST(LowPassFilterTest, SmoothsStep) {
  LowPassFilter lpf(0.1);
  lpf.Step(0.0, kDt);
  const double after_one = lpf.Step(1.0, kDt);
  EXPECT_GT(after_one, 0.0);
  EXPECT_LT(after_one, 0.2);  // One 10 ms sample into a 100 ms time constant.
}

TEST(PidTest, PureProportional) {
  PidController pid(PidGains{.kp = 2.0, .ki = 0.0, .kd = 0.0});
  EXPECT_DOUBLE_EQ(pid.Step(0.5, kDt), 1.0);
}

TEST(PidTest, IntegralGrowsOnPersistentError) {
  PidController pid(PidGains{.kp = 0.0, .ki = 1.0, .kd = 0.0, .integral_limit = 10.0});
  double out = 0.0;
  for (int i = 0; i < 100; ++i) {
    out = pid.Step(1.0, kDt);
  }
  EXPECT_NEAR(out, 1.0, 1e-9);
}

TEST(PidTest, DerivativeRespondsToChange) {
  PidController pid(PidGains{.kp = 0.0, .ki = 0.0, .kd = 1.0, .derivative_filter_tau = 0.0});
  pid.Step(0.0, kDt);
  const double out = pid.Step(1.0, kDt);
  EXPECT_NEAR(out, 100.0, 1e-6);  // d/dt of a unit step over 10 ms.
}

TEST(PidTest, SetOutputStateGivesBumplessRestart) {
  PidController pid(PidGains{.kp = 0.0, .ki = 2.0, .kd = 0.0, .integral_limit = 10.0});
  pid.SetOutputState(0.6);
  // With zero error the output should hold at the preset value.
  EXPECT_NEAR(pid.Step(0.0, kDt), 0.6, 1e-9);
}

TEST(PidTest, ResetClearsState) {
  PidController pid(PidGains{.kp = 1.0, .ki = 1.0, .kd = 1.0});
  for (int i = 0; i < 10; ++i) {
    pid.Step(1.0, kDt);
  }
  pid.Reset();
  EXPECT_DOUBLE_EQ(pid.integral_state(), 0.0);
}

TEST(PidTest, ClosedLoopRegulatesFirstOrderPlant) {
  // Plant: de/dt = disturbance - a * u, the linearized queue dynamics. A PI controller
  // must drive e to zero.
  PidController pid(PidGains{.kp = 0.3, .ki = 2.0, .kd = 0.0, .integral_limit = 1.0});
  const double a = 50.0;
  const double disturbance = 10.0;
  double e = 0.3;
  for (int i = 0; i < 2000; ++i) {  // 20 seconds.
    const double u = pid.Step(e, kDt);
    e += (disturbance - a * u) * kDt;
  }
  EXPECT_NEAR(e, 0.0, 0.01);
}

}  // namespace
}  // namespace realrate::swift
