// Ablation A2: squish policy — plain fair share vs importance-weighted fair share.
// The paper: "importance determines the likelihood that a thread will get its desired
// allocation ... a more-important job cannot starve a less important job."
#include "bench_util.h"
#include "core/overload.h"
#include "exp/scenarios.h"

namespace realrate {
namespace {

void PrintClosedLoop() {
  bench::PrintHeader(
      "Ablation A2 (closed loop): two CPU hogs under the feedback allocator,\n"
      "importance ratio swept; the lesser hog must never starve");

  std::printf("  %-18s %14s %14s %14s %10s\n", "importance ratio", "favored cpu",
              "lesser cpu", "share ratio", "starved?");
  for (double ratio : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const StarvationResult r =
        RunStarvationScenario(SchedulerKind::kFeedbackRbs, ratio, Duration::Seconds(8));
    std::printf("  %-18.0f %13.1f%% %13.1f%% %14.2f %10s\n", ratio, r.favored_cpu * 100,
                r.lesser_cpu * 100, r.favored_cpu / r.lesser_cpu,
                r.lesser_starved ? "YES" : "no");
  }
  std::printf(
      "\n  the closed-loop share ratio exceeds the raw importance ratio because the\n"
      "  per-interval reductions compound; the floor still guarantees progress.\n\n");
}

void PrintOpenLoop() {
  bench::PrintHeader(
      "Ablation A2 (policy only): Squish() on three threads each desiring 90% of the\n"
      "CPU into 0.9 available, sweeping thread A's importance");

  std::printf("  %-14s %10s %10s %10s %12s\n", "A importance", "A grant", "B grant",
              "C grant", "sum");
  for (double w : {1.0, 2.0, 4.0, 8.0}) {
    const auto grants = Squish(
        {{0, 0.9, w, 0.005}, {1, 0.9, 1.0, 0.005}, {2, 0.9, 1.0, 0.005}}, 0.9);
    std::printf("  %-14.0f %10.3f %10.3f %10.3f %12.4f\n", w, grants[0].granted,
                grants[1].granted, grants[2].granted,
                grants[0].granted + grants[1].granted + grants[2].granted);
  }
  std::printf(
      "\n  w = 1 is the paper's plain proportional squish (equal shares); larger w\n"
      "  shifts share toward A while B and C keep non-zero floors.\n\n");
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintClosedLoop();
  realrate::PrintOpenLoop();
  return 0;
}
