// Dispatch hot-path scaling: PickNext and end-to-end dispatch throughput of the
// production scheduler (sched/rbs.h — goodness scan below the occupancy switch,
// indexed run queues above it — over the registry's hot-field slab columns,
// task/thread_slabs.h). Not a paper figure — the paper's machine runs tens of
// threads — but the ROADMAP's production-scale demand: thousands of pipeline
// threads dispatched as fast as the host allows.
//
// Two measurements:
//   1. Dispatcher primitive: PickNext throughput on one run queue holding 128..2048
//      threads (32 runnable, the rest blocked — the farm steady state). Every row
//      sits above the occupancy switch, so this is the indexed pick: it reads the
//      head of the pick index instead of touching every thread. The 1024-thread
//      figure is the regression gate CI checks against BENCH_dispatch_baseline.json.
//   2. End-to-end: wall-clock dispatch throughput of RunServerFarmScenario across
//      densities, where pick cost is diluted by real work (grants, queues,
//      controller) across per-core run queues. The low-density rows sit below the
//      occupancy switch (scan), the high-density rows above it (index).
//
// The `DISPATCH_SCALE ...` line is machine-readable: scripts/check_dispatch_scale.py
// compares it against the committed BENCH_dispatch_baseline.json in CI and fails on
// a > 2x throughput regression at 1024 threads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "exp/scenarios.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "task/registry.h"
#include "util/assert.h"
#include "workloads/misc_work.h"

namespace realrate {
namespace {

// One run queue with `total` reserved threads, `runnable` of them dispatchable (the
// rest blocked), periods cycled so the rate-monotonic index carries many ranks.
struct PickRig {
  Simulator sim;
  ThreadRegistry threads;
  RbsScheduler rbs;

  PickRig(int total, int runnable) : rbs(sim.cpu()) {
    for (int i = 0; i < total; ++i) {
      SimThread* t = threads.Create("t" + std::to_string(i), std::make_unique<CpuHogWork>());
      rbs.AddThread(t);
      rbs.SetReservation(t, Proportion::Ppt(1), Duration::Millis(5 + i % 28), sim.Now());
      if (i >= runnable) {
        t->set_state(ThreadState::kBlocked);
        rbs.OnBlock(t, sim.Now());
      }
    }
  }
};

// PickNext calls per wall-second at `total` threads.
double MeasurePickThroughput(int total, int64_t iterations) {
  PickRig rig(total, /*runnable=*/32);
  const TimePoint now = rig.sim.Now();
  RR_CHECK(rig.rbs.indexing_active());
  SimThread* witness = rig.rbs.PickNext(now);
  RR_CHECK(witness != nullptr);
  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < iterations; ++i) {
    benchmark::DoNotOptimize(rig.rbs.PickNext(now));
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(iterations) / wall;
}

// threads = 2 * pipelines + hogs; hogs keep every core busy so dispatch picks, not
// idle fast-forward, dominate the end-to-end measurement.
ServerFarmParams ParamsForThreads(int threads, int cpus) {
  ServerFarmParams params;
  params.num_cpus = cpus;
  params.num_hogs = cpus;
  params.num_pipelines = (threads - params.num_hogs) / 2;
  // Long enough that farm construction/teardown (counted in wall time) stops
  // diluting the measured throughput.
  params.run_for = Duration::Millis(1000);
  // High per-core densities need smaller reservations or admission control rejects
  // the farm (the cores' fixed budgets are finite).
  const int density = threads / cpus;
  if (density >= 1024) {
    params.producer_proportion = Proportion::Ppt(1);
  } else if (density >= 512) {
    params.producer_proportion = Proportion::Ppt(2);
  }
  return params;
}

struct Measured {
  ServerFarmResult result;
  double wall_s = 0.0;
  double dispatch_per_wsec() const {
    return static_cast<double>(result.total_dispatches) / wall_s;
  }
};

Measured Measure(const ServerFarmParams& params) {
  const auto start = std::chrono::steady_clock::now();
  Measured m;
  m.result = RunServerFarmScenario(params);
  m.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return m;
}

void PrintDispatchScale() {
  bench::PrintHeader(
      "Dispatch primitive: PickNext throughput on one run queue (32 runnable)\n"
      "production scheduler (indexed pick above the occupancy switch, slab registry)");
  std::printf("  %8s %18s\n", "threads", "pick/ws");
  double pick_1024 = 0.0;
  for (int total : {128, 256, 512, 1024, 2048}) {
    const double picks = MeasurePickThroughput(total, 2'000'000);
    std::printf("  %8d %18.0f\n", total, picks);
    if (total == 1024) {
      pick_1024 = picks;
    }
  }

  bench::PrintHeader(
      "End-to-end: server farm, 1 s virtual time, best of 3 trials\n"
      "production defaults (scan or index by occupancy, slabs)");
  std::printf("  %8s %18s\n", "thrxcpu", "dispatch/ws");
  double farm_1024 = 0.0;
  for (const auto& [threads, cpus] :
       {std::pair{128, 8}, {512, 8}, {1024, 8}, {1024, 2}, {2048, 2}}) {
    const ServerFarmParams params = ParamsForThreads(threads, cpus);
    // Best of the trials: host interference (VM steal, other tenants) only ever
    // subtracts throughput, so the maximum is the least-contaminated estimate.
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
      best = std::max(best, Measure(params).dispatch_per_wsec());
    }
    std::printf("  %5dx%d %18.0f\n", threads, cpus, best);
    if (threads == 1024 && cpus == 8) {
      farm_1024 = best;
    }
  }

  // Machine-readable line for scripts/check_dispatch_scale.py (CI regression gate).
  std::printf("\nDISPATCH_SCALE threads=1024 pick_indexed_per_wsec=%.0f "
              "farm_indexed_dispatch_per_wsec=%.0f\n\n",
              pick_1024, farm_1024);
}

void BM_PickNext(benchmark::State& state) {
  const int total = static_cast<int>(state.range(0));
  PickRig rig(total, /*runnable=*/32);
  const TimePoint now = rig.sim.Now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.rbs.PickNext(now));
  }
  state.counters["threads"] = total;
}
BENCHMARK(BM_PickNext)->Arg(128)->Arg(1024)->Unit(benchmark::kNanosecond);

void BM_Farm(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ServerFarmParams params = ParamsForThreads(threads, 8);
  params.run_for = Duration::Millis(200);
  Measured last;
  for (auto _ : state) {
    last = Measure(params);
    benchmark::DoNotOptimize(last.result.total_dispatches);
  }
  state.counters["threads"] = threads;
  state.counters["dispatch_per_wsec"] = last.dispatch_per_wsec();
  state.counters["dispatch_per_vsec"] = last.result.dispatch_per_vsec;
}
BENCHMARK(BM_Farm)->Arg(128)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace realrate

int main(int argc, char** argv) {
  realrate::PrintDispatchScale();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
