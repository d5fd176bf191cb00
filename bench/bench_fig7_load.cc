// Figure 7: "Controller Response Under Load" — the Fig. 6 pipeline plus a CPU hog
// (miscellaneous thread). Total desired allocation exceeds capacity, so the controller
// squishes the hog and consumer; the producer's fixed reservation is untouched. The
// paper highlights the high-frequency allocation oscillation between hog and consumer.
#include <cstdlib>
#include <fstream>

#include "bench_util.h"
#include "exp/scenarios.h"
#include "util/csv.h"

namespace realrate {
namespace {

void PrintFigure7() {
  bench::PrintHeader(
      "Figure 7: controller response under competing load (CPU hog)\n"
      "graphs: consumer/producer allocation, hog allocation (ppt), production rate\n"
      "(bytes/Kcycle), queue fill level");

  PipelineParams params;
  params.with_hog = true;
  const PipelineResult r = RunPipelineScenario(params);

  bench::PrintAligned({&r.consumer_alloc_ppt, &r.producer_alloc_ppt, &r.hog_alloc_ppt,
                       &r.production_bytes_per_kcycle, &r.fill_level},
                      Duration::Seconds(1));

  // Optional plotting output: REALRATE_CSV_DIR=/tmp ./bench_fig7_load
  if (const char* dir = std::getenv("REALRATE_CSV_DIR")) {
    const std::string path = std::string(dir) + "/fig7.csv";
    std::ofstream out(path);
    if (out) {
      WriteAlignedSeries(out, {&r.consumer_alloc_ppt, &r.producer_alloc_ppt,
                               &r.hog_alloc_ppt, &r.production_bytes_per_kcycle,
                               &r.fill_level});
      std::printf("\n  full-resolution series written to %s\n", path.c_str());
    }
  }

  std::printf("\n  squish events: %lld (every controller tick under overload)\n",
              static_cast<long long>(r.squish_events));
  std::printf("  producer allocation pinned at 50 ppt (reservation, never squished): %s\n",
              r.producer_alloc_ppt.Stats().min() == 50 && r.producer_alloc_ppt.Stats().max() == 50
                  ? "yes"
                  : "NO");

  // The hog<->consumer oscillation the paper calls out: allocation stddev over the
  // steady tail.
  RunningStats hog_tail;
  for (const auto& p : r.hog_alloc_ppt.points()) {
    if (p.t >= TimePoint::FromNanos(30'000'000'000)) {
      hog_tail.Add(p.value);
    }
  }
  std::printf("  hog allocation over [30s,45s): mean %.0f ppt, stddev %.1f ppt "
              "(oscillation vs consumer)\n",
              hog_tail.mean(), hog_tail.stddev());
  std::printf("  consumer still tracks the producer: response time %.3f s\n\n",
              r.response_time_s);
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintFigure7();
  return 0;
}
