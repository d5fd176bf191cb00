#include "cluster/router.h"

#include <algorithm>

#include "util/assert.h"

namespace realrate {

FrontEndRouter::FrontEndRouter(const RouterConfig& config, int num_machines)
    : config_(config),
      weights_(static_cast<size_t>(num_machines), 1.0 / num_machines),
      credits_(static_cast<size_t>(num_machines), 0.0),
      routed_(static_cast<size_t>(num_machines), 0) {
  RR_EXPECTS(num_machines >= 1);
  RR_EXPECTS(config.pressure_damping >= 0.0 && config.pressure_damping <= 1.0);
}

double FrontEndRouter::WeightOf(const MachineSignals& s) const {
  RR_EXPECTS(s.spare_ppt >= 0);
  // +1 keeps a fully committed machine routable (it may still be draining), and
  // keeps the all-overloaded cluster well-defined: weights degrade to uniform.
  const double fill = std::clamp(s.fill_fraction, 0.0, 1.0);
  return static_cast<double>(s.spare_ppt + 1) * (1.0 - config_.pressure_damping * fill);
}

void FrontEndRouter::UpdateSignals(const std::vector<MachineSignals>& signals) {
  if (config_.policy == RouterPolicy::kRoundRobin) {
    return;
  }
  RR_EXPECTS(signals.size() == weights_.size());
  double sum = 0.0;
  for (size_t m = 0; m < signals.size(); ++m) {
    weights_[m] = WeightOf(signals[m]);
    sum += weights_[m];
  }
  // WeightOf is >= (0 + 1) * (1 - damping) and damping <= 1; an all-zero sum can
  // only happen with damping == 1 and every machine pegged — fall back uniform.
  for (size_t m = 0; m < weights_.size(); ++m) {
    weights_[m] = sum > 0.0 ? weights_[m] / sum : 1.0 / static_cast<double>(weights_.size());
  }
}

int FrontEndRouter::Route() {
  if (config_.policy == RouterPolicy::kRoundRobin) {
    const size_t pick = rr_;
    rr_ = (rr_ + 1) % routed_.size();
    ++routed_[pick];
    return static_cast<int>(pick);
  }
  // Deficit apportionment: accrue each machine's normalized weight, serve the
  // largest accumulated credit. Strictly-greater comparison breaks ties toward
  // the lowest machine index — deterministic regardless of float equality. The
  // accrual pass vectorizes; the argmax pass carries its running best in
  // registers and selects instead of branching.
  const size_t n = credits_.size();
  for (size_t m = 0; m < n; ++m) {
    credits_[m] += weights_[m];
  }
  size_t pick = 0;
  double best = credits_[0];
  for (size_t m = 1; m < n; ++m) {
    const bool better = credits_[m] > best;
    pick = better ? m : pick;
    best = better ? credits_[m] : best;
  }
  credits_[pick] -= 1.0;
  ++routed_[pick];
  return static_cast<int>(pick);
}

}  // namespace realrate
