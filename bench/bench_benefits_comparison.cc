// §4.4 "Benefits of Real-Rate Scheduling": priority inversion (the Mars Pathfinder
// scenario from §2), starvation, and the media pipeline whose decoder stage needs far
// more CPU than its peers. Compares our feedback allocator against fixed priorities,
// Linux-style MLFQ, and lottery scheduling.
#include "bench_util.h"
#include "exp/scenarios.h"

namespace realrate {
namespace {

void PrintPathfinder() {
  bench::PrintHeader(
      "Priority inversion (Mars Pathfinder): high-priority periodic task shares a\n"
      "mutex with a low-priority task; a medium-priority hog competes");

  std::printf("  %-16s %14s %14s %9s %10s %10s %10s\n", "scheduler", "max wait",
              "steady wait", "blocked?", "high acq", "med cpu", "low cpu");
  for (SchedulerKind kind :
       {SchedulerKind::kFixedPriority, SchedulerKind::kMlfq, SchedulerKind::kLottery,
        SchedulerKind::kFeedbackRbs}) {
    const PathfinderResult r = RunPathfinderScenario(kind);
    std::printf("  %-16s %12.3f s %12.3f s %9s %10lld %9.1f%% %9.1f%%\n", ToString(kind),
                r.high_max_wait_s, r.high_max_wait_steady_s,
                r.high_still_blocked ? "YES" : "no",
                static_cast<long long>(r.high_acquisitions), r.medium_cpu * 100,
                r.low_cpu * 100);
  }
  std::printf(
      "\n  fixed-priority: the medium hog (arriving at t=1s) starves the lock-holding\n"
      "  low task, so the high task blocks on the mutex until the end of the run —\n"
      "  the unbounded inversion. The feedback allocator keeps every thread\n"
      "  progressing; after its ramp-up the high task's waits stay bounded.\n\n");
}

void PrintStarvation() {
  bench::PrintHeader(
      "Starvation: two CPU hogs, one favored (priority / tickets / importance 4:1).\n"
      "\"one process cannot keep the CPU from another process indefinitely simply\n"
      "because it is more important\"");

  std::printf("  %-16s %12s %12s %10s\n", "scheduler", "favored cpu", "lesser cpu",
              "starved?");
  for (SchedulerKind kind :
       {SchedulerKind::kFixedPriority, SchedulerKind::kMlfq, SchedulerKind::kLottery,
        SchedulerKind::kFeedbackRbs}) {
    const StarvationResult r = RunStarvationScenario(kind);
    std::printf("  %-16s %11.1f%% %11.1f%% %10s\n", ToString(kind), r.favored_cpu * 100,
                r.lesser_cpu * 100, r.lesser_starved ? "YES" : "no");
  }
  std::printf("\n");
}

void PrintMediaPipeline() {
  bench::PrintHeader(
      "Media pipeline: source -> parse -> decode -> render; the decoder costs 10x per\n"
      "byte. \"Our controller automatically identifies that one stage of the pipeline\n"
      "has vastly different CPU requirements than the others\"");

  const MediaPipelineResult r = RunMediaPipelineScenario();
  std::printf("  final allocations: parse %.0f ppt, decode %.0f ppt, render %.0f ppt\n",
              r.parse_ppt, r.decode_ppt, r.render_ppt);
  std::printf("  decode / parse allocation ratio: %.1fx (cost ratio per byte: 10x)\n",
              r.decode_ppt / r.parse_ppt);
  std::printf("  max |fill - 1/2| across stage queues: %.3f\n", r.max_fill_deviation);
  std::printf("  bytes rendered: %lld\n\n", static_cast<long long>(r.rendered_bytes));
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintPathfinder();
  realrate::PrintStarvation();
  realrate::PrintMediaPipeline();
  return 0;
}
