// The proportion-estimation law (paper Figure 4):
//
//   P'_t = k * Q_t        when P_t is on target
//        = P_t - C        when P_t is too generous
//
// "Normally, the controller multiplies the progress pressure by a constant scaling
// factor to determine the new desired allocation. If the previous allocation
// overestimated the application's needs, the controller reduces the allocation by a
// constant factor." Over-estimation is detected by comparing the CPU a thread used
// against the amount allocated to it (§3.3 "Estimating Proportion").
#ifndef REALRATE_CORE_PROPORTION_ESTIMATOR_H_
#define REALRATE_CORE_PROPORTION_ESTIMATOR_H_

#include "swift/pid.h"
#include "util/types.h"

namespace realrate {

struct ProportionEstimatorConfig {
  // PID gains for G in the pressure equation. Tuned (docs/TUNING.md, the `gains` row)
  // so the canonical producer/consumer pipeline responds to a rate doubling in
  // roughly 1/3 s, matching the paper's measured responsiveness.
  swift::PidGains gains{.kp = 0.3, .ki = 2.0, .kd = 0.0, .integral_limit = 0.5,
                        .derivative_filter_tau = 0.05};
  // The reclaim step: the constant C, as a CPU fraction (50 ppt). It must out-pace
  // the miscellaneous constant-pressure growth (kScaleK * ki *
  // FeedbackAllocator::kMiscPressure per second) or an idle important thread would
  // hold an inflated allocation forever.
  double reclaim_step = 0.05;
};

// Per-thread estimator state: one PID plus reclaim bookkeeping.
class ProportionEstimator {
 public:
  // The constant scaling factor k mapping PID output to a CPU fraction.
  static constexpr double kScaleK = 1.0;
  // Low-pass time constant (seconds) applied to the sampled pressure before the PID.
  // The controller samples fill levels asynchronously to thread periods; threads drain
  // their per-period budgets in bursts, so raw samples alias at the beat frequency.
  // "Using a suitable low-pass filter, we can schedule jobs with reasonable
  // responsiveness and low overhead while keeping the sampling rate reasonably high."
  static constexpr double kPressureFilterTau = 0.04;
  // Allocation floor: "avoids starvation by ensuring that every job in the system is
  // assigned a non-zero percentage of the CPU."
  static constexpr double kMinFraction = 0.005;  // 5 ppt
  static constexpr double kMaxFraction = 0.95;
  // "Too generous" detection: if the thread used less than (1 - kReclaimHeadroom) of
  // the allocation it was actually granted for kReclaimPatience consecutive samples,
  // reduce by the configured reclaim_step.
  static constexpr double kReclaimHeadroom = 0.25;
  static constexpr int kReclaimPatience = 3;

  explicit ProportionEstimator(const ProportionEstimatorConfig& config);

  // One controller interval for this thread.
  //   pressure:         summed signed progress pressure (Figure 3 input).
  //   used_fraction:    CPU fraction the thread actually consumed last interval.
  //   granted_fraction: CPU fraction actuated for it last interval (post-squish) —
  //                     the "amount allocated to it" of the paper's reclaim test.
  //   dt:               controller interval in seconds.
  // Returns the new desired allocation as a CPU fraction, clamped to
  // [kMinFraction, kMaxFraction].
  double Step(double pressure, double used_fraction, double granted_fraction, double dt);

  // Desired allocation from the previous Step.
  double desired() const { return desired_; }
  // True if the last Step took the "too generous" branch.
  bool reclaimed_last_step() const { return reclaimed_; }

  void Reset();

  const ProportionEstimatorConfig& config() const { return config_; }

 private:
  ProportionEstimatorConfig config_;
  swift::PidController pid_;
  swift::LowPassFilter pressure_filter_;
  double desired_;
  int underuse_streak_ = 0;
  bool reclaimed_ = false;
};

}  // namespace realrate

#endif  // REALRATE_CORE_PROPORTION_ESTIMATOR_H_
