// Step-response analysis of controller tunings against the queue plant.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/proportion_estimator.h"
#include "swift/pid.h"

namespace realrate::swift {
namespace {

// The classical control metrics of one closed-loop step response.
struct StepResponse {
  // Time for the output to first reach 90% of the final setpoint change.
  double rise_time_s = -1.0;
  // Peak overshoot beyond the setpoint, as a fraction of the step size (0 = none).
  double overshoot = 0.0;
  // |setpoint - output| at the end of the horizon, as a fraction of the step size.
  double steady_state_error = 0.0;
  // True if the output ended within 10% of the setpoint without diverging.
  bool stable = false;
};

struct PlantConfig {
  // First-order plant: d(output)/dt = gain * control - leak * output.
  // The default leak models the scheduling loop's operating point: holding the output
  // at the setpoint requires a nonzero steady control (like matching a producer's
  // rate), which only integral action can supply. leak * dt must stay well below 1
  // (explicit Euler).
  double gain = 50.0;
  double leak = 5.0;
  // Actuator saturation (allocation cannot exceed the machine).
  double control_min = 0.0;
  double control_max = 1.0;
};

constexpr double kDt = 0.01;
constexpr double kHorizon = 20.0;

// Closes a loop of a PID with `gains` around the plant, applies a step in the
// setpoint at t = 0, and measures the response over kHorizon at kDt sampling.
StepResponse AnalyzeStepResponse(const PidGains& gains, const PlantConfig& plant,
                                 double setpoint) {
  PidController pid(gains);
  const auto steps = static_cast<int>(kHorizon / kDt);
  double output = 0.0;
  StepResponse response;
  double peak = 0.0;

  for (int i = 0; i < steps; ++i) {
    const double error = setpoint - output;
    const double control =
        std::clamp(pid.Step(error, kDt), plant.control_min, plant.control_max);
    output += (plant.gain * control - plant.leak * output) * kDt;

    const double t = (i + 1) * kDt;
    if (response.rise_time_s < 0 && output >= 0.9 * setpoint) {
      response.rise_time_s = t;
    }
    peak = std::max(peak, output);
    if (std::abs(output) > std::abs(setpoint) * 100.0) {
      return response;  // Diverged; stable stays false.
    }
  }

  response.overshoot = std::max(0.0, (peak - setpoint) / std::abs(setpoint));
  response.steady_state_error = std::abs(setpoint - output) / std::abs(setpoint);
  response.stable = response.steady_state_error <= 0.10;
  return response;
}

TEST(StepResponseTest, DefaultGainsAreStableAndFast) {
  // The gains the controller actually runs with, so a retune is checked here.
  const StepResponse r =
      AnalyzeStepResponse(ProportionEstimatorConfig{}.gains, PlantConfig{}, /*setpoint=*/0.25);
  EXPECT_TRUE(r.stable);
  EXPECT_GT(r.rise_time_s, 0.0);
  EXPECT_LT(r.rise_time_s, 0.5);       // The ~1/3 s responsiveness class.
  EXPECT_LT(r.overshoot, 0.5);
  EXPECT_LT(r.steady_state_error, 0.05);
}

TEST(StepResponseTest, PureProportionalHasSteadyStateError) {
  const StepResponse r = AnalyzeStepResponse(PidGains{.kp = 0.3, .ki = 0.0, .kd = 0.0},
                                             PlantConfig{.leak = 5.0}, 0.25);
  // With a leaky plant, P-only cannot null the error; PI can.
  const StepResponse r_pi = AnalyzeStepResponse(
      PidGains{.kp = 0.3, .ki = 2.0, .kd = 0.0, .integral_limit = 1.0},
      PlantConfig{.leak = 5.0}, 0.25);
  EXPECT_GT(r.steady_state_error, r_pi.steady_state_error);
  EXPECT_LT(r_pi.steady_state_error, 0.02);
}

TEST(StepResponseTest, ExcessiveGainOscillatesOrOvershoots) {
  const StepResponse hot_r = AnalyzeStepResponse(
      PidGains{.kp = 5.0, .ki = 80.0, .kd = 0.0, .integral_limit = 5.0}, PlantConfig{}, 0.25);
  const StepResponse calm_r = AnalyzeStepResponse(
      PidGains{.kp = 0.3, .ki = 2.0, .kd = 0.0, .integral_limit = 0.5}, PlantConfig{}, 0.25);
  EXPECT_GT(hot_r.overshoot, calm_r.overshoot);
}

TEST(StepResponseTest, HigherIntegralGainRespondsFaster) {
  const StepResponse slow_r = AnalyzeStepResponse(
      PidGains{.kp = 0.1, .ki = 0.5, .kd = 0.0, .integral_limit = 1.0}, PlantConfig{}, 0.25);
  const StepResponse fast_r = AnalyzeStepResponse(
      PidGains{.kp = 0.3, .ki = 4.0, .kd = 0.0, .integral_limit = 1.0}, PlantConfig{}, 0.25);
  EXPECT_TRUE(slow_r.stable);
  EXPECT_TRUE(fast_r.stable);
  EXPECT_LT(fast_r.rise_time_s, slow_r.rise_time_s);
}

TEST(StepResponseTest, ActuatorSaturationRespected) {
  // With a tiny control ceiling the plant cannot reach the setpoint: steady-state
  // error stays large and the analyzer reports instability-as-unsettled, not divergence.
  const StepResponse r = AnalyzeStepResponse(
      PidGains{.kp = 0.3, .ki = 2.0, .kd = 0.0, .integral_limit = 10.0},
      PlantConfig{.gain = 50.0, .leak = 50.0, .control_max = 0.001}, 0.25);
  EXPECT_GT(r.steady_state_error, 0.5);
  EXPECT_FALSE(r.stable);
}

}  // namespace
}  // namespace realrate::swift
