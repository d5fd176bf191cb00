// The cluster layer (src/cluster/): the front-end router's deterministic
// apportionment (and its equality with a plain reference scan), the M = 1
// bit-equality pin against a bare Machine, per-machine trace invariance across
// host threads and reruns, replayed vs generated streams, per-node batch
// buffers reused across fences, goodput scaling with M
// (and the pinned M=1/4/16 scale-out sweep), the cross-machine rebalancer, the
// all-drop zero-served edge, and a ~2M-thread configuration smoke.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/cluster_farm.h"
#include "cluster/router.h"
#include "util/rng.h"
#include "workloads/arrivals.h"
#include "workloads/web_farm.h"

namespace realrate {
namespace {

// ---------------------------------------------------------------------------
// FrontEndRouter.

TEST(RouterTest, RoundRobinCycles) {
  RouterConfig config;
  config.policy = RouterPolicy::kRoundRobin;
  FrontEndRouter router(config, 3);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(router.Route(), i % 3);
  }
  EXPECT_EQ(router.routed(), (std::vector<int64_t>{3, 3, 3}));
}

TEST(RouterTest, FeedbackFollowsSpare) {
  FrontEndRouter router(RouterConfig{}, 2);
  // Machine 0 has ~10x machine 1's head-room; routing should track the ratio.
  router.UpdateSignals({{900, 0.0}, {89, 0.0}});
  for (int i = 0; i < 1000; ++i) {
    router.Route();
  }
  EXPECT_GT(router.routed()[0], 850);
  EXPECT_LT(router.routed()[0], 950);
  EXPECT_EQ(router.routed()[0] + router.routed()[1], 1000);
}

TEST(RouterTest, PressureDampsSpare) {
  RouterConfig config;
  config.pressure_damping = 1.0;
  FrontEndRouter router(config, 2);
  // Equal ledger spare, but machine 1's queues are pegged: damping must push
  // the traffic to machine 0.
  router.UpdateSignals({{500, 0.0}, {500, 1.0}});
  for (int i = 0; i < 100; ++i) {
    router.Route();
  }
  EXPECT_GT(router.routed()[0], 95);
}

TEST(RouterTest, UniformWhenEveryMachineIsSaturated) {
  RouterConfig config;
  config.pressure_damping = 1.0;
  FrontEndRouter router(config, 4);
  // All-zero weights (no spare, full queues) degrade to uniform, not to a
  // divide-by-zero or a single-machine pile-up.
  router.UpdateSignals({{0, 1.0}, {0, 1.0}, {0, 1.0}, {0, 1.0}});
  for (int i = 0; i < 400; ++i) {
    router.Route();
  }
  EXPECT_EQ(router.routed(), (std::vector<int64_t>{100, 100, 100, 100}));
}

TEST(RouterTest, SameSignalsSameAssignment) {
  FrontEndRouter a(RouterConfig{}, 3);
  FrontEndRouter b(RouterConfig{}, 3);
  const std::vector<MachineSignals> signals = {{100, 0.1}, {700, 0.4}, {350, 0.9}};
  a.UpdateSignals(signals);
  b.UpdateSignals(signals);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.Route(), b.Route());
  }
}

// The router as a plain scan: weights normalized from the signals, then one
// loop that accrues each credit and keeps the first strictly larger one.
class ReferenceRouter {
 public:
  ReferenceRouter(double damping, int machines)
      : damping_(damping),
        weights_(static_cast<size_t>(machines), 1.0 / machines),
        credits_(static_cast<size_t>(machines), 0.0),
        routed_(static_cast<size_t>(machines), 0) {}

  void UpdateSignals(const std::vector<MachineSignals>& signals) {
    double sum = 0.0;
    for (size_t m = 0; m < signals.size(); ++m) {
      const double fill = std::clamp(signals[m].fill_fraction, 0.0, 1.0);
      weights_[m] = static_cast<double>(signals[m].spare_ppt + 1) * (1.0 - damping_ * fill);
      sum += weights_[m];
    }
    for (size_t m = 0; m < weights_.size(); ++m) {
      weights_[m] = sum > 0.0 ? weights_[m] / sum : 1.0 / static_cast<double>(weights_.size());
    }
  }

  int Route() {
    size_t pick = 0;
    for (size_t m = 0; m < credits_.size(); ++m) {
      credits_[m] += weights_[m];
      if (credits_[m] > credits_[pick]) {
        pick = m;
      }
    }
    credits_[pick] -= 1.0;
    ++routed_[pick];
    return static_cast<int>(pick);
  }

  const std::vector<int64_t>& routed() const { return routed_; }

 private:
  double damping_;
  std::vector<double> weights_;
  std::vector<double> credits_;
  std::vector<int64_t> routed_;
};

TEST(RouterTest, MatchesReferenceScan) {
  // Signal shapes: a coarse grid, where many machines carry exactly equal
  // weights and credits tie; every machine saturated under full damping, the
  // uniform fallback; and continuous draws. Signals refresh every 100 routes.
  enum class Shape { kTies, kUniformFallback, kContinuous };
  Rng rng(7);
  for (int machines : {1, 2, 3, 16, 2048}) {
    for (Shape shape : {Shape::kTies, Shape::kUniformFallback, Shape::kContinuous}) {
      RouterConfig config;
      config.pressure_damping = shape == Shape::kUniformFallback ? 1.0 : 0.5;
      FrontEndRouter router(config, machines);
      ReferenceRouter reference(config.pressure_damping, machines);
      std::vector<MachineSignals> signals(static_cast<size_t>(machines));
      for (int i = 0; i < 10'000; ++i) {
        if (i % 100 == 0) {
          for (MachineSignals& s : signals) {
            switch (shape) {
              case Shape::kTies:
                s = {static_cast<int64_t>(rng.NextBounded(3)) * 250,
                     static_cast<double>(rng.NextBounded(3)) * 0.5};
                break;
              case Shape::kUniformFallback:
                s = {0, 1.0};
                break;
              case Shape::kContinuous:
                s = {static_cast<int64_t>(rng.NextBounded(1000)), rng.NextDouble()};
                break;
            }
          }
          router.UpdateSignals(signals);
          reference.UpdateSignals(signals);
        }
        ASSERT_EQ(router.Route(), reference.Route())
            << "M=" << machines << " shape=" << static_cast<int>(shape) << " route " << i;
      }
      EXPECT_EQ(router.routed(), reference.routed()) << "M=" << machines;
    }
  }
}

// ---------------------------------------------------------------------------
// Cluster stepping.

TEST(ClusterTest, LockstepClocksAndFences) {
  ClusterConfig config;
  config.num_machines = 3;
  config.node.num_cpus = 2;
  config.epoch = Duration::Millis(10);
  Cluster cluster(config);
  cluster.Start();
  cluster.RunFor(Duration::Millis(105));  // 10 whole epochs + one partial.
  EXPECT_EQ(cluster.epochs(), 11);
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(cluster.node(m).sim().Now(), TimePoint::Origin() + Duration::Millis(105));
    EXPECT_EQ(cluster.node(m).machine().epoch_fences(), 11);
  }
}

// ---------------------------------------------------------------------------
// The cluster farm scenario.

WebFarmParams SmallFarm() {
  WebFarmParams p;
  p.num_cpus = 2;
  p.num_workers = 4;
  p.num_acceptors = 1;
  p.run_for = Duration::Millis(400);
  p.arrivals.seed = 42;
  p.arrivals.requests_per_sec = 2000.0;
  return p;
}

ClusterFarmParams SmallCluster(int machines) {
  ClusterFarmParams p;
  p.num_machines = machines;
  p.farm = SmallFarm();
  return p;
}

TEST(ClusterFarmTest, M1PinnedBitIdenticalToBareMachine) {
  const WebFarmParams farm = SmallFarm();
  const WebFarmResult bare = RunWebFarmScenario(farm);
  const ClusterFarmResult cluster = RunClusterFarmScenario(SmallCluster(1));
  ASSERT_EQ(cluster.machine_trace_hashes.size(), 1u);
  // The whole point of the epoch contract: a 1-machine cluster IS a bare
  // machine, bit for bit, fences and epoch segmentation notwithstanding.
  EXPECT_EQ(cluster.machine_trace_hashes[0], bare.trace_hash);
  EXPECT_EQ(cluster.served, bare.served);
  EXPECT_EQ(cluster.accepted, bare.accepted);
  EXPECT_EQ(cluster.injected, bare.injected);
  EXPECT_EQ(cluster.offered, bare.offered);
  // The latency columns too, the mean included: the node's samples move into
  // the cluster-wide set in their order, so even the summation is the same.
  ASSERT_GT(cluster.served, 20);
  EXPECT_EQ(cluster.p50_ms, bare.p50_ms);
  EXPECT_EQ(cluster.p99_ms, bare.p99_ms);
  EXPECT_EQ(cluster.p999_ms, bare.p999_ms);
  EXPECT_EQ(cluster.max_ms, bare.max_ms);
  EXPECT_EQ(cluster.mean_ms, bare.mean_ms);
}

TEST(ClusterFarmTest, PerMachineHashesInvariantAcrossHostThreads) {
  ClusterFarmParams p = SmallCluster(3);
  p.farm.num_cpus = 4;
  p.farm.run_for = Duration::Millis(300);
  p.farm.arrivals.requests_per_sec = 6000.0;
  const ClusterFarmResult seq = RunClusterFarmScenario(p);
  p.farm.host_threads = 4;
  const ClusterFarmResult par = RunClusterFarmScenario(p);
  EXPECT_EQ(seq.machine_trace_hashes, par.machine_trace_hashes);
  EXPECT_EQ(seq.served_per_machine, par.served_per_machine);
  EXPECT_EQ(seq.routed_per_machine, par.routed_per_machine);
  EXPECT_EQ(seq.cluster_hash, par.cluster_hash);
  // Every latency column but the mean: a staked round's flush may reorder the
  // summation behind it, never the samples.
  ASSERT_GT(seq.served, 20);
  EXPECT_EQ(seq.p50_ms, par.p50_ms);
  EXPECT_EQ(seq.p99_ms, par.p99_ms);
  EXPECT_EQ(seq.p999_ms, par.p999_ms);
  EXPECT_EQ(seq.max_ms, par.max_ms);
}

TEST(ClusterFarmTest, RerunIsBitStable) {
  const ClusterFarmResult a = RunClusterFarmScenario(SmallCluster(4));
  const ClusterFarmResult b = RunClusterFarmScenario(SmallCluster(4));
  EXPECT_EQ(a.machine_trace_hashes, b.machine_trace_hashes);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.rebalanced, b.rebalanced);
  EXPECT_EQ(a.routed_per_machine, b.routed_per_machine);
  ASSERT_GT(a.served, 20);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.p999_ms, b.p999_ms);
  EXPECT_EQ(a.max_ms, b.max_ms);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
}

TEST(ClusterFarmTest, GoodputScalesWithMachines) {
  // Offer ~2x one machine's capacity: M = 1 saturates, M = 4 has head-room.
  // A full-second horizon so the controllers' ramp-up amortizes and the
  // steady-state capacity difference dominates.
  ClusterFarmParams one = SmallCluster(1);
  one.farm.run_for = Duration::Seconds(1);
  one.farm.arrivals.requests_per_sec = 2.0 * WebFarmCapacityRps(one.farm);
  ClusterFarmParams four = SmallCluster(4);
  four.farm.run_for = one.farm.run_for;
  four.farm.arrivals.requests_per_sec = one.farm.arrivals.requests_per_sec;
  const ClusterFarmResult r1 = RunClusterFarmScenario(one);
  const ClusterFarmResult r4 = RunClusterFarmScenario(four);
  EXPECT_GT(r1.served, 0);
  // 4 machines against the same overload stream must serve well beyond the
  // single machine (the exact ratio depends on drop behavior; 1.5x is a floor).
  EXPECT_GT(r4.served, r1.served * 3 / 2);
  EXPECT_GT(r4.goodput_rps, r1.goodput_rps * 1.5);
}

TEST(ClusterFarmTest, ReplayAndGeneratedStreamsAgree) {
  // A caller's replay is read in place, borrowed whole by the M = 1 node and
  // routed batch by batch for M > 1; either way it must run exactly as the same
  // stream generated from `farm.arrivals`. The params borrow the caller's
  // stream; they never hold a copy of it.
  for (int machines : {1, 4}) {
    const ClusterFarmParams generated = SmallCluster(machines);
    ClusterFarmParams replayed = generated;
    const std::vector<RequestRecord> stream =
        GenerateRequests(generated.farm.arrivals, generated.farm.run_for);
    replayed.farm.replay = stream;
    const ClusterFarmResult a = RunClusterFarmScenario(generated);
    const ClusterFarmResult b = RunClusterFarmScenario(replayed);
    EXPECT_EQ(a.machine_trace_hashes, b.machine_trace_hashes) << "M=" << machines;
    EXPECT_EQ(a.cluster_hash, b.cluster_hash) << "M=" << machines;
    EXPECT_EQ(a.served, b.served) << "M=" << machines;
    EXPECT_EQ(a.offered, b.offered) << "M=" << machines;
    EXPECT_EQ(a.offered, static_cast<int64_t>(stream.size())) << "M=" << machines;
    EXPECT_EQ(a.p99_ms, b.p99_ms) << "M=" << machines;
    EXPECT_EQ(a.routed_per_machine, b.routed_per_machine) << "M=" << machines;
    EXPECT_EQ(replayed.farm.replay.begin(), stream.data()) << "M=" << machines;
    EXPECT_GT(a.served, 0) << "M=" << machines;
  }
}

TEST(ClusterFarmTest, NodeBatchBuffersAreReusedAcrossFences) {
  // M > 1: each node's injector borrows its routed batch from one buffer that
  // the scenario refills at every fence, after checking that the node drained
  // it. Over ~200 short epochs every offered request must still arrive exactly
  // once (under ASan a read from a refilled buffer is a use-after-free), and the
  // schedule must repeat bit for bit.
  ClusterFarmParams p = SmallCluster(3);
  p.epoch = Duration::Millis(2);
  const ClusterFarmResult a = RunClusterFarmScenario(p);
  const ClusterFarmResult b = RunClusterFarmScenario(p);
  EXPECT_GE(a.epoch_fences, 3 * 190);
  EXPECT_GT(a.offered, 0);
  EXPECT_EQ(a.injected, a.offered);
  int64_t routed = 0;
  for (int64_t r : a.routed_per_machine) {
    EXPECT_GT(r, 0);
    routed += r;
  }
  EXPECT_EQ(routed, a.offered);
  EXPECT_GT(a.served, 0);
  EXPECT_EQ(a.machine_trace_hashes, b.machine_trace_hashes);
  EXPECT_EQ(a.served, b.served);
}

TEST(ClusterFarmTest, ScaleOutSweepIsPinned) {
  // The scale-out sweep: 2-core/4-worker nodes behind the feedback router, fed
  // 0.9x of the whole cluster's saturation rate for 1 s, at M = 1/4/16. The
  // offered stream grows with M, so served must grow with it; each width's
  // schedule is pinned.
  struct Row {
    int machines;
    uint64_t cluster_hash;
  };
  constexpr Row kSweep[] = {{1, 11338117482333893952ull},
                            {4, 4625612893124806026ull},
                            {16, 2815708046067757760ull}};
  std::vector<int64_t> served;
  for (const Row& row : kSweep) {
    ClusterFarmParams p;
    p.num_machines = row.machines;
    p.farm.num_cpus = 2;
    p.farm.num_workers = 4;
    p.farm.run_for = Duration::Seconds(1);
    p.farm.arrivals.seed = 99;
    p.farm.arrivals.requests_per_sec = 0.9 * ClusterFarmCapacityRps(p);
    const ClusterFarmResult r = RunClusterFarmScenario(p);
    EXPECT_EQ(r.cluster_hash, row.cluster_hash) << "M=" << row.machines;
    EXPECT_LE(r.p50_ms, r.p99_ms) << "M=" << row.machines;
    EXPECT_LT(r.imbalance_ratio, 1.5) << "M=" << row.machines;
    served.push_back(r.served);
  }
  EXPECT_GT(served[0], 0);
  EXPECT_LT(served[0], served[1]);
  EXPECT_LT(served[1], served[2]);
  EXPECT_GE(served[2], 8 * served[0]);
}

TEST(ClusterFarmTest, FeedbackRoutingSpreadsLoad) {
  ClusterFarmParams p = SmallCluster(4);
  p.farm.arrivals.requests_per_sec = 0.8 * ClusterFarmCapacityRps(p);
  const ClusterFarmResult result = RunClusterFarmScenario(p);
  ASSERT_EQ(result.served_per_machine.size(), 4u);
  for (int64_t served : result.served_per_machine) {
    EXPECT_GT(served, 0);
  }
  // Identical machines at sub-saturation load: the feedback router should keep
  // the farm close to level (imbalance 1.0 = perfect, 4.0 = one machine).
  EXPECT_LT(result.imbalance_ratio, 1.5);
  EXPECT_GE(result.imbalance_ratio, 1.0);
}

TEST(ClusterFarmTest, AllDropRunServesNothingWithoutAborting) {
  ClusterFarmParams p = SmallCluster(2);
  // Requests whose service demand cannot complete within the horizon: the farm
  // accepts and queues, but serves nothing — the percentile columns must come
  // back as explicit zeros, not an empty-SampleSet abort.
  p.farm.arrivals.service_cycles = Cycles{4'000'000'000'000};
  p.farm.arrivals.requests_per_sec = 500.0;
  const ClusterFarmResult result = RunClusterFarmScenario(p);
  EXPECT_EQ(result.served, 0);
  EXPECT_DOUBLE_EQ(result.p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.p999_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.max_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.goodput_rps, 0.0);
  EXPECT_DOUBLE_EQ(result.imbalance_ratio, 1.0);
}

TEST(ClusterFarmTest, OversizedReplayRecordsAreClampedOnEveryNode) {
  // The routed path admits through the same WebFarmInstance::Admit as the bare
  // farm: a record larger than both queues is clamped, not a TryPush violation.
  ClusterFarmParams p = SmallCluster(2);
  p.farm.worker_queue_bytes = 1024;
  p.farm.listen_queue_bytes = 2048;
  p.router.policy = RouterPolicy::kRoundRobin;  // Giants land on both nodes.
  const std::vector<RequestRecord> log = {{Duration::Millis(1), 1 << 20, 100'000},
                                          {Duration::Millis(2), 1 << 20, 100'000},
                                          {Duration::Millis(15), 256, 100'000},
                                          {Duration::Millis(25), 4096, 100'000}};
  p.farm.replay = log;
  const ClusterFarmResult result = RunClusterFarmScenario(p);
  EXPECT_EQ(result.routed_per_machine, (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(result.offered, 4);
  EXPECT_EQ(result.injected, 4);
  EXPECT_EQ(result.listen_drops, 0);
  EXPECT_EQ(result.served, 4);
}

TEST(ClusterFarmTest, RebalancerMovesQueuedBacklog) {
  ClusterFarmParams p = SmallCluster(2);
  // Signal-blind routing + a heavy Pareto service tail: random giant requests
  // pile one machine's listen backlog far above the other's, and the
  // cross-machine rebalancer must move queued requests at epoch boundaries.
  // (Moderate load, not sustained overload: when both listen queues peg at
  // capacity the backlogs are symmetric again and nothing triggers.)
  p.router.policy = RouterPolicy::kRoundRobin;
  p.farm.run_for = Duration::Seconds(1);
  p.farm.arrivals.seed = 7;
  // Rate sized against the BASE (untailed) demand, then the tail is layered on:
  // the Pareto mean is ~10x the base, so true utilization sits near saturation
  // with bursty giants — the regime where backlogs diverge.
  p.farm.arrivals.requests_per_sec = 0.6 * ClusterFarmCapacityRps(p);
  p.farm.arrivals.service_alpha = 1.1;
  p.rebalance_interval = Duration::Millis(50);
  p.rebalance_threshold = 1.2;
  const ClusterFarmResult moved = RunClusterFarmScenario(p);
  EXPECT_GT(moved.rebalanced, 0);

  ClusterFarmParams off = p;
  off.rebalance_interval = Duration::Zero();
  const ClusterFarmResult frozen = RunClusterFarmScenario(off);
  EXPECT_EQ(frozen.rebalanced, 0);
  // Moving queued work changes the schedule; the hashes must reflect it.
  EXPECT_NE(moved.machine_trace_hashes, frozen.machine_trace_hashes);
}

// ---------------------------------------------------------------------------
// Configuration smoke: its own serial CTest entry, cluster_scale_smoke (see
// tests/CMakeLists.txt), and filtered out of the plain cluster_test entry.

TEST(ClusterScaleSmokeTest, TwoMillionThreadsServe) {
  // ~2M simulated threads, reached wide (2048 nodes of 1024 workers) rather
  // than deep: a node's start-up transient grows quadratically with its
  // workers but only linearly with machines, and at 1024 workers on 2 cores a
  // node still serves. The smoke must serve at least half of what it injects,
  // not just allocate threads.
  ClusterFarmParams p;
  p.num_machines = 2048;
  p.farm.num_cpus = 2;
  p.farm.num_workers = 1024;
  p.farm.run_for = Duration::Millis(300);
  p.epoch = Duration::Millis(10);
  p.rebalance_interval = Duration::Zero();
  p.farm.arrivals.seed = 99;
  p.farm.arrivals.requests_per_sec = 400'000.0;
  const ClusterFarmResult r = RunClusterFarmScenario(p);
  EXPECT_GE(r.total_threads, 2'000'000);
  EXPECT_GT(r.served, 0);
  EXPECT_GE(static_cast<double>(r.served), 0.5 * static_cast<double>(r.injected));
  EXPECT_EQ(r.cluster_hash, 16773132090333788936ull);
}

}  // namespace
}  // namespace realrate
