#include "cluster/cluster_farm.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/assert.h"

namespace realrate {

namespace {

// FNV-1a fold of the per-machine hashes, for single-column comparisons.
uint64_t FoldHashes(const std::vector<uint64_t>& hashes) {
  uint64_t h = 14695981039346656037ull;
  for (uint64_t mh : hashes) {
    h ^= mh;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ClusterFarmResult RunClusterFarmScenario(const ClusterFarmParams& params) {
  RR_EXPECTS(params.num_machines >= 1);
  RR_EXPECTS(params.epoch.IsPositive());
  RR_EXPECTS(params.farm.run_for.IsPositive());
  RR_EXPECTS(params.rebalance_threshold >= 1.0);
  RR_EXPECTS(params.rebalance_max_moves >= 0);

  const int machines = params.num_machines;
  const Duration horizon = params.farm.run_for;
  std::vector<RequestRecord> records =
      params.farm.replay.empty() ? GenerateRequests(params.farm.arrivals, horizon)
                                 : params.farm.replay;
  const auto offered = static_cast<int64_t>(records.size());

  ClusterConfig cluster_config;
  cluster_config.num_machines = machines;
  cluster_config.node = WebFarmSystemConfig(params.farm);
  cluster_config.epoch = params.epoch;
  Cluster cluster(cluster_config);

  std::vector<std::unique_ptr<WebFarmInstance>> farms;
  for (int m = 0; m < machines; ++m) {
    System& node = cluster.node(m);
    node.sim().trace().SetEnabled(true);
    node.sim().trace().SetHashOnly(true);
    // Each node has one injector. The degenerate cluster routes everything to its
    // one machine, so the whole stream moves to it up front — the arrivals then
    // take their places in the simulator's event order exactly as a bare
    // RunWebFarmScenario's do, which is what keeps the M = 1 trace pin bit-exact.
    // M > 1 appends each epoch's routed batch at the fence below.
    farms.push_back(BuildWebFarm(
        WebFarmBuildOf(params.farm,
                       machines == 1 ? std::move(records) : std::vector<RequestRecord>{}),
        node.sim(), node.threads(), node.queues(), node.machine(), &node.controller()));
  }

  FrontEndRouter router(params.router, machines);
  int64_t rebalanced = 0;
  size_t next_record = 0;
  int64_t epoch_index = 0;
  // Rebalance cadence in whole epochs (rounded up); 0 = disabled.
  const int64_t rebalance_every =
      params.rebalance_interval.IsPositive()
          ? std::max<int64_t>(1, (params.rebalance_interval + params.epoch -
                                  Duration::Nanos(1)) /
                                     params.epoch)
          : 0;

  cluster.SetEpochHook([&](TimePoint epoch_start) {
    if (machines == 1) {
      return;  // Identity routing, nothing to rebalance.
    }

    // --- Cross-machine rebalancer (before routing, so this boundary's router
    // weights see the post-migration pressure) ---
    if (rebalance_every > 0 && epoch_index > 0 && epoch_index % rebalance_every == 0) {
      int donor = 0;
      int recipient = 0;
      for (int m = 1; m < machines; ++m) {
        const size_t backlog = farms[static_cast<size_t>(m)]->listen.meta.size();
        if (backlog > farms[static_cast<size_t>(donor)]->listen.meta.size()) {
          donor = m;
        }
        if (backlog < farms[static_cast<size_t>(recipient)]->listen.meta.size()) {
          recipient = m;
        }
      }
      auto& from = farms[static_cast<size_t>(donor)]->listen;
      auto& to = farms[static_cast<size_t>(recipient)]->listen;
      int moves = 0;
      // Migrate newest-arrived pending requests (the back of the donor's FIFO —
      // untouched by its acceptors) until the backlogs level or the cap binds.
      // Queued requests are whole pipeline units: nothing mid-service ever moves,
      // and the migrated request keeps its original arrival stamp so end-to-end
      // latency stays honest.
      while (moves < params.rebalance_max_moves &&
             from.meta.size() >
                 static_cast<size_t>(params.rebalance_threshold *
                                     static_cast<double>(to.meta.size() + 1)) &&
             to.buffer->fill() + from.meta.back().bytes <= to.buffer->capacity()) {
        const PendingRequest moved = from.meta.back();
        from.meta.pop_back();
        RR_CHECK(from.buffer->TryPopExact(moved.bytes));
        RR_CHECK(to.buffer->TryPush(moved.bytes));
        to.meta.push_back(moved);
        ++moves;
      }
      rebalanced += moves;
    }

    // --- Router: assign this epoch's arrivals from fence-fresh signals ---
    std::vector<MachineSignals> signals(static_cast<size_t>(machines));
    for (int m = 0; m < machines; ++m) {
      signals[static_cast<size_t>(m)] = {cluster.SpareSignal(m), cluster.PressureSignal(m)};
    }
    router.UpdateSignals(signals);

    const Duration remaining = horizon - (epoch_start - TimePoint::Origin());
    const Duration step = remaining < params.epoch ? remaining : params.epoch;
    const Duration window_end = (epoch_start + step) - TimePoint::Origin();
    std::vector<std::vector<RequestRecord>> batches(static_cast<size_t>(machines));
    while (next_record < records.size() && records[next_record].arrival < window_end) {
      batches[static_cast<size_t>(router.Route())].push_back(records[next_record]);
      ++next_record;
    }
    // Every batch arrives before the next fence, so each node's stream is drained
    // here and Append re-arms it at the fence.
    for (int m = 0; m < machines; ++m) {
      farms[static_cast<size_t>(m)]->injector->Append(
          std::move(batches[static_cast<size_t>(m)]));
    }
    ++epoch_index;
  });

  cluster.Start();
  cluster.RunFor(horizon);

  ClusterFarmResult result;
  result.num_machines = machines;
  result.total_threads =
      static_cast<int64_t>(machines) * (params.farm.num_acceptors + params.farm.num_workers);
  result.offered = offered;
  result.rebalanced = rebalanced;

  SampleSet all_latencies;
  int64_t max_served = 0;
  for (int m = 0; m < machines; ++m) {
    WebFarmInstance& farm = *farms[static_cast<size_t>(m)];
    result.injected += farm.injector->injected();
    result.listen_drops += farm.listen_drops;
    result.accepted += farm.accepted();
    result.dispatch_drops += farm.dispatch_drops();
    const int64_t served = farm.served();
    result.served += served;
    result.served_per_machine.push_back(served);
    max_served = std::max(max_served, served);
    for (double s : farm.latencies.samples()) {
      all_latencies.Add(s);
    }
    System& node = cluster.node(m);
    result.epoch_fences += node.machine().epoch_fences();
    result.machine_trace_hashes.push_back(node.sim().trace().Hash());
  }
  result.routed_per_machine = router.routed();
  result.cluster_hash = FoldHashes(result.machine_trace_hashes);

  // All-drop configurations serve nothing; the percentile columns stay at their
  // explicit zeros rather than touching the empty SampleSet (whose Percentile
  // requires at least one sample).
  if (!all_latencies.empty()) {
    result.p50_ms = all_latencies.Percentile(50.0) * 1e3;
    result.p99_ms = all_latencies.Percentile(99.0) * 1e3;
    result.p999_ms = all_latencies.Percentile(99.9) * 1e3;
    result.mean_ms = all_latencies.Mean() * 1e3;
    result.max_ms = all_latencies.Percentile(100.0) * 1e3;
  }
  result.goodput_rps = static_cast<double>(result.served) / horizon.ToSeconds();
  result.imbalance_ratio =
      result.served > 0
          ? static_cast<double>(max_served) /
                (static_cast<double>(result.served) / static_cast<double>(machines))
          : 1.0;
  return result;
}

double ClusterFarmCapacityRps(const ClusterFarmParams& params) {
  return static_cast<double>(params.num_machines) * WebFarmCapacityRps(params.farm);
}

}  // namespace realrate
