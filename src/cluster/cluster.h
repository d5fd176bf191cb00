// Cluster: M fully wired machines (exp/system.h stacks) advanced in lockstep
// epochs — the substrate for the second-level feedback loop of ROADMAP item 2.
//
// Each node is an independent share-nothing System: its own Simulator (virtual
// clock), thread/queue registries, per-core RBS schedulers, Machine, and feedback
// controller. The cluster never reaches into a node mid-epoch; all cross-machine
// observation and mutation (the router's signal reads, appending each node's
// routed arrivals to its one injector, the cross-machine rebalancer's migrations)
// happen at epoch boundaries, after every node's `Machine::EpochFence` has
// asserted quiescence and settled idle fast-forward. This is the parallel
// engine's round contract applied one level up: within an epoch a machine is
// alone in the world, so each node's trace is exactly the trace a standalone
// machine with the same inputs would produce — bit-identical at any
// `host_threads`, and (for M = 1) bit-identical to a bare Machine run of the
// same workload.
//
// The node clocks stay aligned by construction: every node starts at the origin
// and every node steps by the same epoch quantum.
#ifndef REALRATE_CLUSTER_CLUSTER_H_
#define REALRATE_CLUSTER_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "exp/system.h"
#include "util/time.h"

namespace realrate {

struct ClusterConfig {
  // Number of machines (1-64 are the tested range). M = 1 is the degenerate
  // cluster, pinned bit-identical to a bare Machine run.
  int num_machines = 4;
  // Per-node stack configuration; all nodes are identical (heterogeneous
  // clusters would only need a per-node vector here).
  SystemConfig node;
  // The lockstep step quantum: cross-machine signal reads, routing, and
  // migration happen only at multiples of this. Matches the controller's
  // default 100 Hz interval so cluster-level decisions see freshly resolved
  // grants.
  Duration epoch = Duration::Millis(10);
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_machines() const { return static_cast<int>(nodes_.size()); }
  System& node(int m) { return *nodes_.at(static_cast<size_t>(m)); }
  const ClusterConfig& config() const { return config_; }

  // Called once per epoch boundary (including t = 0, before the first step),
  // after every node's EpochFence and before any node advances. This is the
  // only legal point for cross-machine work; the farm layer hangs its router
  // batch and rebalancer off it.
  using EpochHook = std::function<void(TimePoint epoch_start)>;
  void SetEpochHook(EpochHook hook) { epoch_hook_ = std::move(hook); }

  // Starts every node (machine + controller). Call once, then RunFor().
  void Start();
  // Advances every node in lockstep `epoch` quanta (a final partial quantum
  // when `d` is not a multiple).
  void RunFor(Duration d);

  // --- Cluster-level feedback signals (computed on read at the epoch fence) ---
  // The router only ever sees the fence snapshot, so nothing below is maintained
  // per event; each read sweeps state the node keeps anyway.
  // Clamped spare head-room of node `m` in ppt, summed over its cores against the
  // controller's post-backoff admission threshold: the machine's progress signal
  // (routing new load at a machine that is shedding admissions would fight the
  // backoff). O(cores).
  int64_t SpareSignal(int m) {
    const FeedbackAllocator& c = node(m).controller();
    return c.ledger().SparePpt(Proportion::FromFraction(c.overload_threshold()).ppt());
  }
  // Aggregate queue fill fraction of node `m` in [0, 1]: the machine's pressure
  // signal. O(queues).
  double PressureSignal(int m) { return node(m).queues().AggregateFillFraction(); }

  // All node clocks are equal; node 0's is the cluster's.
  TimePoint Now() { return node(0).sim().Now(); }
  int64_t epochs() const { return epochs_; }

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<System>> nodes_;
  EpochHook epoch_hook_;
  int64_t epochs_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_CLUSTER_CLUSTER_H_
