// Period-estimation heuristic for aperiodic real-rate threads (§3.3): "a simple
// heuristic which increases the period to reduce quantization error when the proportion
// is small ... The controller decreases the period to reduce jitter, which we detect
// via large oscillations relative to the buffer size. The controller determines the
// magnitude of oscillation by monitoring the amount of change in fill-level over the
// course of a period, averaged over several periods."
//
// The paper disabled this mechanism in all its experiments; it is implemented here,
// off by default, and exercised by tests and the A3 ablation bench.
#ifndef REALRATE_CORE_PERIOD_ESTIMATOR_H_
#define REALRATE_CORE_PERIOD_ESTIMATOR_H_

#include "util/ring_buffer.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

class PeriodEstimator {
 public:
  // Range a proposed period is clamped to.
  static constexpr Duration kMinPeriod = Duration::Millis(5);
  static constexpr Duration kMaxPeriod = Duration::Millis(240);
  // Proportion below which quantization error dominates: with a 1 ms dispatch quantum,
  // a thread with a 10 ms period and a 2% share is due 0.2 quanta per period — it
  // either gets one quantum (5x too much) or none. Growing the period amortizes this.
  static constexpr double kSmallFraction = 0.02;
  // Fill-level swing (fraction of buffer size, averaged over the window) above which
  // the period shrinks to cut jitter.
  static constexpr double kJitterThreshold = 0.25;
  // Number of recent fill-swing observations averaged.
  static constexpr int kWindow = 8;

  PeriodEstimator();

  // Records the fill-level swing (max-min fill fraction) observed over the last period.
  void ObserveFillSwing(double swing);

  // Proposes a period given the current one and the thread's current allocation.
  // Doubles on quantization pressure, halves on jitter pressure, otherwise returns
  // `current` unchanged. Jitter takes precedence (a jittery thread must not also grow
  // its period).
  Duration Propose(Duration current, double allocation_fraction);

  double MeanSwing() const;

 private:
  RingBuffer<double> swings_;
};

}  // namespace realrate

#endif  // REALRATE_CORE_PERIOD_ESTIMATOR_H_
