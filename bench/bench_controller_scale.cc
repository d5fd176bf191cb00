// Control-plane scaling: RunOnce throughput of the controller's staged
// Sample→Estimate→Resolve→Actuate pipeline (core/controller.h) as the controlled set
// grows. Not a paper figure — the paper's machine controls tens of threads — but the
// ROADMAP's production-scale demand: once dispatch scaled to thousands of threads,
// the 100 Hz controller became the hot path at farm scale.
//
// The measurement: RunOnce throughput on an 8-core rig with 256/1024/4096
// controlled threads spanning all five paper classes, queues in steady state (the
// farm's common case: most ticks find most queues unmoved, which is exactly what the
// dirty-set sampler exploits).
//
// The `CONTROLLER_SCALE ...` line is machine-readable: scripts/check_controller_scale.py
// compares it against the committed BENCH_controller_baseline.json in CI and fails
// on a > 2x throughput regression at 4096 threads.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "exp/system.h"
#include "util/assert.h"
#include "workloads/misc_work.h"

namespace realrate {
namespace {

// An 8-core machine with `total` controlled threads: 50% real-rate (one registered
// queue each, held near half full), 20% miscellaneous, 15% real-time and 10%
// aperiodic real-time (1 ppt reservations, spread periods), 5% interactive. The
// machine is not ticked — the rig isolates RunOnce cost, like the Fig. 5 overhead
// bench — so queues sit in the steady state between controller ticks.
struct ControllerRig {
  std::unique_ptr<System> system;
  int64_t ticks_run = 0;

  explicit ControllerRig(int total) {
    SystemConfig config;
    config.num_cpus = 8;
    config.start_controller = false;
    // Isolate the controller's own arithmetic: no overhead charge-back into the
    // (idle) machine.
    config.controller.charge_overhead = false;
    system = std::make_unique<System>(config);
    for (int i = 0; i < total; ++i) {
      SimThread* t =
          system->Spawn("t" + std::to_string(i), std::make_unique<CpuHogWork>());
      switch (i % 20) {
        case 0: case 1: case 2:  // 15% real-time.
          RR_CHECK(system->controller().AddRealTime(t, Proportion::Ppt(1),
                                                    Duration::Millis(5 + i % 28)));
          break;
        case 3: case 4:  // 10% aperiodic real-time.
          RR_CHECK(system->controller().AddAperiodicRealTime(t, Proportion::Ppt(1)));
          break;
        case 5:  // 5% interactive.
          system->controller().AddInteractive(t);
          break;
        case 6: case 7: case 8: case 9:  // 20% miscellaneous.
          system->controller().AddMiscellaneous(t);
          break;
        default: {  // 50% real-rate, one half-full queue each.
          BoundedBuffer* q = system->CreateQueue("q" + std::to_string(i), 1'000);
          RR_CHECK(q->TryPush(500));
          system->queues().Register(q, t->id(), QueueRole::kConsumer);
          system->controller().AddRealRate(t);
          break;
        }
      }
    }
  }

  // One controller iteration at the next 10 ms grid point (virtual time does not
  // otherwise advance: the rig measures the controller, not the machine).
  void Tick() {
    ++ticks_run;
    system->controller().RunOnce(TimePoint::Origin() +
                                 Duration::Millis(10 * ticks_run));
  }
};

// RunOnce calls per wall-second, measured over a fixed wall budget after a warmup
// that fills the quality windows and settles the estimators.
double MeasureRunOnceThroughput(int total, double budget_s) {
  ControllerRig rig(total);
  for (int i = 0; i < 300; ++i) {
    rig.Tick();
  }
  int64_t iterations = 0;
  const auto start = std::chrono::steady_clock::now();
  double wall = 0.0;
  do {
    for (int i = 0; i < 10; ++i) {
      rig.Tick();
    }
    iterations += 10;
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } while (wall < budget_s);
  return static_cast<double>(iterations) / wall;
}

void PrintControllerScale() {
  bench::PrintHeader(
      "Control plane: RunOnce throughput, 8-core rig, all five thread classes\n"
      "staged pipeline (ledger + dirty-set + O(1) evidence)");
  std::printf("  %8s %18s\n", "threads", "RunOnce/ws");
  double runonce_4096 = 0.0;
  for (const int total : {256, 1024, 4096}) {
    const double runs = MeasureRunOnceThroughput(total, /*budget_s=*/0.3);
    std::printf("  %8d %18.0f\n", total, runs);
    if (total == 4096) {
      runonce_4096 = runs;
    }
  }
  // Machine-readable line for scripts/check_controller_scale.py (CI gate).
  std::printf("\nCONTROLLER_SCALE threads=4096 pipeline_runonce_per_wsec=%.0f\n\n",
              runonce_4096);
}

void BM_RunOnce(benchmark::State& state) {
  const int total = static_cast<int>(state.range(0));
  ControllerRig rig(total);
  for (int i = 0; i < 300; ++i) {
    rig.Tick();
  }
  for (auto _ : state) {
    rig.Tick();
    benchmark::DoNotOptimize(rig.ticks_run);
  }
  state.counters["threads"] = total;
}
BENCHMARK(BM_RunOnce)->Arg(256)->Arg(4096)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace realrate

int main(int argc, char** argv) {
  realrate::PrintControllerScale();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
