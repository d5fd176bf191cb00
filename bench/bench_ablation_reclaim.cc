// Ablation A4: the "too generous" reclaim branch of the proportion-estimation law
// (Figure 4). A bursty interactive-style miscellaneous job holds allocation it rarely
// uses; without reclaim, the constant-pressure heuristic inflates its share and a
// competing hog is squished for nothing.
#include <memory>

#include "bench_util.h"
#include "exp/sampler.h"
#include "exp/system.h"
#include "workloads/misc_work.h"
#include "workloads/server.h"

namespace realrate {
namespace {

struct ReclaimOutcome {
  double interactive_alloc_ppt;  // Mean allocation held by the mostly-idle job.
  double interactive_used_cpu;   // CPU it actually consumed.
  double hog_cpu;                // Throughput of the competing hog.
};

ReclaimOutcome RunScenario(double reclaim_step) {
  SystemConfig config;
  config.controller.estimator.reclaim_step = reclaim_step;
  System system(config);

  TtyPort tty("console");
  system.machine().Attach(&tty);
  TypingProcess::Config typing;
  typing.mean_think = Duration::Millis(400);
  TypingProcess typist(system.sim(), &tty, typing);

  SimThread* interactive = system.Spawn(
      "interactive", std::make_unique<InteractiveWork>(&tty, /*cycles_per_event=*/200'000));
  SimThread* hog = system.Spawn("hog", std::make_unique<CpuHogWork>());
  system.controller().AddMiscellaneous(interactive);
  system.controller().AddMiscellaneous(hog);

  Sampler sampler(system.sim(), Duration::Millis(50));
  sampler.AddProbe("ia", [interactive] {
    return static_cast<double>(interactive->proportion().ppt());
  });

  const Duration run = Duration::Seconds(10);
  system.Start();
  typist.Start();
  sampler.Start();
  system.RunFor(run);

  const auto total = static_cast<double>(system.sim().cpu().DurationToCycles(run));
  ReclaimOutcome out;
  out.interactive_alloc_ppt =
      sampler.Series("ia").MeanOver(TimePoint::FromNanos(5'000'000'000), TimePoint::Max());
  out.interactive_used_cpu = static_cast<double>(interactive->total_cycles()) / total;
  out.hog_cpu = static_cast<double>(hog->total_cycles()) / total;
  return out;
}

void PrintAblation() {
  bench::PrintHeader(
      "Ablation A4: usage-based reclaim (Fig. 4 'too generous' branch)\n"
      "a mostly-idle interactive job vs a CPU hog; reclaim step C swept\n"
      "(C = 0 disables the branch entirely)");

  std::printf("  %-14s %18s %16s %12s\n", "reclaim C", "idle job alloc", "idle job used",
              "hog cpu");
  for (double step : {0.0, 0.01, 0.05, 0.10}) {
    const ReclaimOutcome r = RunScenario(step);
    std::printf("  %-14.2f %14.0f ppt %15.2f%% %11.1f%%\n", step, r.interactive_alloc_ppt,
                r.interactive_used_cpu * 100, r.hog_cpu * 100);
  }
  std::printf(
      "\n  with C = 0 the idle job's constant pressure inflates its held allocation\n"
      "  and the hog loses capacity it could use; larger C trims the idle job back\n"
      "  toward its true (tiny) usage.\n\n");
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintAblation();
  return 0;
}
