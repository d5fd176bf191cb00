#include "core/period_estimator.h"

#include <algorithm>

#include "util/assert.h"

namespace realrate {

PeriodEstimator::PeriodEstimator() : swings_(static_cast<size_t>(kWindow)) {
  static_assert(kWindow >= 1);
  static_assert(kMinPeriod <= kMaxPeriod);
}

void PeriodEstimator::ObserveFillSwing(double swing) {
  RR_EXPECTS(swing >= 0.0 && swing <= 1.0);
  swings_.Push(swing);
}

double PeriodEstimator::MeanSwing() const {
  if (swings_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (size_t i = 0; i < swings_.size(); ++i) {
    sum += swings_[i];
  }
  return sum / static_cast<double>(swings_.size());
}

Duration PeriodEstimator::Propose(Duration current, double allocation_fraction) {
  RR_EXPECTS(current.IsPositive());
  // Jitter first: halve the period when fill level oscillates too widely.
  if (swings_.full() && MeanSwing() > kJitterThreshold) {
    return std::max(kMinPeriod, current / 2);
  }
  // Quantization: double the period while the proportion is small.
  if (allocation_fraction < kSmallFraction) {
    return std::min(kMaxPeriod, current * 2);
  }
  return current;
}

}  // namespace realrate
