// RunClusterFarmScenario: the Flash-style web farm (workloads/web_farm.h) spread
// across a Cluster. One cluster-wide open-loop request stream is routed to M
// per-machine farms by the FrontEndRouter at every cluster epoch, and a
// cross-machine rebalancer mirrors the in-machine one: at rebalance boundaries
// it migrates queued (not yet accepted) requests from the deepest listen backlog
// to the shallowest — whole pending pipeline units, moved only at epoch fences,
// so every per-machine trace stays exactly what a standalone machine would
// produce.
//
// Determinism contract (tests/cluster_test.cc):
// same params ⇒ bit-identical per-machine trace hashes at any host_threads; and
// num_machines = 1 is pinned bit-identical to RunWebFarmScenario with the same
// WebFarmParams. To keep the M = 1 pin exact, the degenerate cluster hands the
// whole stream to the node's own injector up front (routing to one machine is
// the identity, so pre-routing is semantics-preserving); M > 1 routes
// epoch-by-epoch from signal snapshots.
#ifndef REALRATE_CLUSTER_CLUSTER_FARM_H_
#define REALRATE_CLUSTER_CLUSTER_FARM_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/router.h"
#include "util/time.h"
#include "workloads/web_farm.h"

namespace realrate {

struct ClusterFarmParams {
  int num_machines = 4;
  // Per-node farm and machine shape. `farm.arrivals` (or `farm.replay`)
  // describes the CLUSTER-wide stream — offered load for the whole cluster, not
  // per machine.
  WebFarmParams farm;
  // Cluster epoch: router batch + signal refresh cadence.
  Duration epoch = Duration::Millis(10);
  RouterConfig router;
  // Cross-machine rebalancer cadence (rounded up to whole epochs; zero
  // disables). At each boundary the deepest listen backlog donates to the
  // shallowest when it exceeds rebalance_threshold times the recipient's
  // (+1 smoothing), capped at rebalance_max_moves requests per boundary.
  Duration rebalance_interval = Duration::Millis(100);
  double rebalance_threshold = 2.0;
  int rebalance_max_moves = 64;
};

struct ClusterFarmResult {
  int num_machines = 0;
  int64_t total_threads = 0;  // Simulated farm threads across the cluster.
  int64_t offered = 0;
  int64_t injected = 0;
  int64_t listen_drops = 0;
  int64_t accepted = 0;
  int64_t dispatch_drops = 0;
  int64_t served = 0;
  // End-to-end latency percentiles over every served request cluster-wide,
  // milliseconds. All-drop runs serve nothing: the columns stay at this
  // explicit zero instead of touching an empty SampleSet.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double goodput_rps = 0.0;  // served / horizon.
  // Routing quality: max per-machine served over the perfect-balance share
  // (served / M). 1.0 = perfectly level; M = everything landed on one machine.
  // 1.0 (vacuously level) when nothing was served.
  double imbalance_ratio = 1.0;
  int64_t rebalanced = 0;   // Requests the cross-machine rebalancer moved.
  int64_t epoch_fences = 0;  // Sum over machines.
  std::vector<int64_t> served_per_machine;
  std::vector<int64_t> routed_per_machine;
  // Per-machine trace hashes (the determinism contract), plus an FNV-1a fold
  // for single-column comparisons.
  std::vector<uint64_t> machine_trace_hashes;
  uint64_t cluster_hash = 0;
};

ClusterFarmResult RunClusterFarmScenario(const ClusterFarmParams& params);

// The cluster-wide saturation request rate: M machines' worth of
// WebFarmCapacityRps. The 1.0x point of a cluster offered-load sweep.
double ClusterFarmCapacityRps(const ClusterFarmParams& params);

}  // namespace realrate

#endif  // REALRATE_CLUSTER_CLUSTER_FARM_H_
