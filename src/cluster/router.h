// FrontEndRouter: deterministic request-to-machine assignment driven by the
// cluster-level feedback signals. The paper's allocator steers proportions from
// progress pressure within one machine; the router applies the same idea one
// level up: each machine's clamped BudgetLedger spare-sum is its progress
// signal, its aggregate queue fill is its pressure signal, and new load flows
// toward head-room. Both signals are computed once per epoch fence from state the
// machine keeps anyway (Cluster::SpareSignal / PressureSignal); nothing is
// maintained per event for the router.
//
// Assignment is stride-style deficit apportionment: every machine accrues
// credit in proportion to its normalized weight, and each request goes to the
// machine with the largest accumulated credit (ties broken by lowest index).
// That makes a routing batch a pure function of (weights at the last update,
// request count) — no randomness, no wall-clock, so cluster runs replay
// bit-identically. Weights refresh only at cluster epoch boundaries; between
// updates the router works from the last snapshot, mirroring how a real
// front-end works from slightly stale load reports.
#ifndef REALRATE_CLUSTER_ROUTER_H_
#define REALRATE_CLUSTER_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace realrate {

enum class RouterPolicy {
  kRoundRobin,  // Signal-blind rotation: the baseline routing quality floor.
  kFeedback,    // Spare-ppt weighted, queue-pressure damped (the default).
};

struct RouterConfig {
  RouterPolicy policy = RouterPolicy::kFeedback;
  // How strongly a machine's aggregate queue fill discounts its spare weight:
  // weight = (spare_ppt + 1) * (1 - damping * fill). 0 routes on ledger spare
  // alone; 1 makes a queue-saturated machine weightless even with spare ppt.
  double pressure_damping = 0.5;
};

// One machine's signal snapshot, read at an epoch fence.
struct MachineSignals {
  int64_t spare_ppt = 0;      // Cluster::SpareSignal() (clamped, >= 0).
  double fill_fraction = 0.0;  // Cluster::PressureSignal(), [0, 1].
};

class FrontEndRouter {
 public:
  FrontEndRouter(const RouterConfig& config, int num_machines);

  // Refreshes the weight snapshot (epoch boundaries). Size must equal
  // num_machines. A no-op under kRoundRobin.
  void UpdateSignals(const std::vector<MachineSignals>& signals);

  // Assigns the next request; deterministic given the construction config, the
  // signal-update history, and the call count.
  int Route();

  int num_machines() const { return static_cast<int>(routed_.size()); }
  // Requests routed to each machine since construction.
  const std::vector<int64_t>& routed() const { return routed_; }

 private:
  double WeightOf(const MachineSignals& s) const;

  RouterConfig config_;
  std::vector<double> weights_;  // Normalized to sum 1 when any weight > 0.
  std::vector<double> credits_;
  std::vector<int64_t> routed_;
  std::size_t rr_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_CLUSTER_ROUTER_H_
