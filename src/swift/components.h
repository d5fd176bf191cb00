// The filters the PID controller is built from: integrator (with anti-windup),
// differentiator, and first-order low-pass filter. Each is a discrete-time scalar
// filter; `dt` is the controller sampling interval in seconds and is passed per step
// so the filters keep working when the controller's period is reconfigured at run time.
#ifndef REALRATE_SWIFT_COMPONENTS_H_
#define REALRATE_SWIFT_COMPONENTS_H_

#include "util/assert.h"

namespace realrate::swift {

// Trapezoidal integrator with symmetric anti-windup clamping. Anti-windup matters in
// this system: during overload the actuator (allocation) saturates, and an unclamped
// integral would keep growing and overshoot massively when load disappears.
class Integrator {
 public:
  explicit Integrator(double windup_limit);
  double Step(double input, double dt);
  void Reset();
  double value() const { return value_; }
  // Overrides the accumulated state (clamped to the windup limit). Used for bumpless
  // transfer when an outer policy forces the actuator to a new operating point.
  void SetValue(double value);

 private:
  const double limit_;
  double value_ = 0.0;
  double prev_input_ = 0.0;
  bool has_prev_ = false;
};

// First difference scaled by 1/dt.
class Differentiator {
 public:
  double Step(double input, double dt);
  void Reset();

 private:
  double prev_ = 0.0;
  bool has_prev_ = false;
};

// First-order IIR low-pass with time constant tau (seconds). The paper: "Using a
// suitable low-pass filter, we can schedule jobs with reasonable responsiveness and low
// overhead while keeping the sampling rate reasonably high."
class LowPassFilter {
 public:
  explicit LowPassFilter(double tau_seconds);
  double Step(double input, double dt);
  void Reset();

 private:
  const double tau_;
  double value_ = 0.0;
  bool primed_ = false;
};

}  // namespace realrate::swift

#endif  // REALRATE_SWIFT_COMPONENTS_H_
