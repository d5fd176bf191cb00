// Ablation A7: the RBS dispatch order. The paper implements rate-monotonic ordering
// through goodness but is explicitly mechanism-agnostic ("we could equally well have
// used other RBS mechanisms such as SMaRT, Rialto, or BERT"). This bench sweeps total
// utilization for a non-harmonic two-task set and counts deadline misses under
// rate-monotonic versus earliest-deadline-first ordering — the classical separation:
// RMS is guaranteed only to the Liu-Layland bound (82.8% for two tasks), EDF to 100%.
#include <memory>

#include "bench_util.h"
#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "task/registry.h"
#include "workloads/misc_work.h"

namespace realrate {
namespace {

struct MissCounts {
  int64_t fast = 0;
  int64_t slow = 0;
};

MissCounts RunTaskSet(DispatchOrder order, double utilization) {
  Simulator sim;
  ThreadRegistry threads;
  RbsScheduler rbs(sim.cpu(), RbsConfig{.order = order});
  Machine machine(sim, rbs, threads,
                  MachineConfig{.dispatch_interval = Duration::Millis(1),
                                .charge_overheads = false});
  // Split the utilization ~52/48 across non-harmonic periods (10 ms and 14 ms).
  const int fast_ppt = static_cast<int>(utilization * 1000.0 * 0.52);
  const int slow_ppt = static_cast<int>(utilization * 1000.0 * 0.48);
  SimThread* fast = threads.Create("fast", std::make_unique<CpuHogWork>());
  SimThread* slow = threads.Create("slow", std::make_unique<CpuHogWork>());
  machine.Attach(fast);
  machine.Attach(slow);
  rbs.SetReservation(fast, Proportion::Ppt(fast_ppt), Duration::Millis(10), sim.Now());
  rbs.SetReservation(slow, Proportion::Ppt(slow_ppt), Duration::Millis(14), sim.Now());
  machine.Start();
  sim.RunFor(Duration::Seconds(2));
  return {fast->deadline_misses(), slow->deadline_misses()};
}

void PrintAblation() {
  bench::PrintHeader(
      "Ablation A7: RBS dispatch order — rate-monotonic vs EDF\n"
      "two tasks, periods 10 ms / 14 ms (non-harmonic), utilization swept;\n"
      "misses per 2 s (Liu-Layland 2-task bound: 82.8%)");

  std::printf("  %-12s %16s %16s %16s %16s\n", "utilization", "RM fast misses",
              "RM slow misses", "EDF fast misses", "EDF slow misses");
  for (double u : {0.70, 0.80, 0.85, 0.90, 0.95, 0.99}) {
    const MissCounts rm = RunTaskSet(DispatchOrder::kRateMonotonic, u);
    const MissCounts edf = RunTaskSet(DispatchOrder::kEarliestDeadlineFirst, u);
    std::printf("  %10.0f%% %16lld %16lld %16lld %16lld\n", u * 100,
                static_cast<long long>(rm.fast), static_cast<long long>(rm.slow),
                static_cast<long long>(edf.fast), static_cast<long long>(edf.slow));
  }
  std::printf(
      "\n  below the Liu-Layland bound both orders are clean; above it RM shortchanges\n"
      "  the longer-period task while EDF stays feasible to ~100%%. The feedback\n"
      "  controller is agnostic to this choice — it only actuates proportion/period.\n\n");
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintAblation();
  return 0;
}
