#include "core/proportion_estimator.h"

#include <algorithm>

#include "util/assert.h"

namespace realrate {

ProportionEstimator::ProportionEstimator(const ProportionEstimatorConfig& config)
    : config_(config),
      pid_(config.gains),
      pressure_filter_(kPressureFilterTau),
      desired_(kMinFraction) {
  static_assert(kMinFraction >= 0 && kMinFraction <= kMaxFraction);
  static_assert(kMaxFraction <= 1.0);
  static_assert(kReclaimPatience >= 1);
}

double ProportionEstimator::Step(double pressure, double used_fraction,
                                 double granted_fraction, double dt) {
  RR_EXPECTS(dt > 0);
  reclaimed_ = false;

  // "Too generous" check first: the thread left more than `kReclaimHeadroom` of the
  // allocation it was actually granted unused. A squished thread that consumes its
  // whole (small) grant is not over-provisioned, however large its desire. Requiring
  // a streak avoids reacting to a single interval where the thread happened to block
  // briefly (e.g. a momentarily empty input queue).
  const bool underused = granted_fraction > kMinFraction &&
                         used_fraction < granted_fraction * (1.0 - kReclaimHeadroom);
  if (underused) {
    ++underuse_streak_;
  } else {
    underuse_streak_ = 0;
  }

  if (underuse_streak_ >= kReclaimPatience) {
    // P'_t = P_t - C, where P_t is the allocation actually in force. Also rebase the
    // PID so its integral agrees with the reduced allocation (bumpless transfer);
    // otherwise the integral would immediately push the allocation back up.
    desired_ = std::max(kMinFraction,
                        std::min(desired_, granted_fraction) - config_.reclaim_step);
    pid_.SetOutputState(desired_ / kScaleK);
    underuse_streak_ = 0;
    reclaimed_ = true;
    return desired_;
  }

  // P'_t = k * Q_t, the "on target" branch, with the pressure smoothed first.
  const double q = pid_.Step(pressure_filter_.Step(pressure, dt), dt);
  desired_ = std::clamp(kScaleK * q, kMinFraction, kMaxFraction);
  return desired_;
}

void ProportionEstimator::Reset() {
  pid_.Reset();
  pressure_filter_.Reset();
  desired_ = kMinFraction;
  underuse_streak_ = 0;
  reclaimed_ = false;
}

}  // namespace realrate
