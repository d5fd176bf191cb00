#include "swift/components.h"

#include <algorithm>

namespace realrate::swift {

Integrator::Integrator(double windup_limit) : limit_(windup_limit) {
  RR_EXPECTS(windup_limit > 0);
}

double Integrator::Step(double input, double dt) {
  RR_EXPECTS(dt > 0);
  const double increment =
      has_prev_ ? 0.5 * (input + prev_input_) * dt : input * dt;  // Trapezoid rule.
  prev_input_ = input;
  has_prev_ = true;
  value_ = std::clamp(value_ + increment, -limit_, limit_);
  return value_;
}

void Integrator::Reset() {
  value_ = 0.0;
  prev_input_ = 0.0;
  has_prev_ = false;
}

void Integrator::SetValue(double value) { value_ = std::clamp(value, -limit_, limit_); }

double Differentiator::Step(double input, double dt) {
  RR_EXPECTS(dt > 0);
  const double out = has_prev_ ? (input - prev_) / dt : 0.0;
  prev_ = input;
  has_prev_ = true;
  return out;
}

void Differentiator::Reset() {
  prev_ = 0.0;
  has_prev_ = false;
}

LowPassFilter::LowPassFilter(double tau_seconds) : tau_(tau_seconds) {
  RR_EXPECTS(tau_seconds >= 0);
}

double LowPassFilter::Step(double input, double dt) {
  RR_EXPECTS(dt > 0);
  if (!primed_) {
    value_ = input;  // Start at the first sample instead of decaying up from zero.
    primed_ = true;
    return value_;
  }
  const double alpha = dt / (tau_ + dt);
  value_ += alpha * (input - value_);
  return value_;
}

void LowPassFilter::Reset() {
  value_ = 0.0;
  primed_ = false;
}

}  // namespace realrate::swift
