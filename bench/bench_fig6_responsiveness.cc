// Figure 6: "Controller Responsiveness" — a producer with a fixed reservation emits
// rate pulses (doubling bytes/cycle); the controller adjusts the consumer's allocation
// so its progress matches. The paper plots both progress rates (bytes/sec) and the
// queue fill level, and reports ~1/3 s to respond to the rate doubling.
#include <cstdlib>
#include <fstream>

#include "bench_util.h"
#include "exp/scenarios.h"
#include "util/csv.h"

namespace realrate {
namespace {

void PrintFigure6() {
  bench::PrintHeader(
      "Figure 6: controller responsiveness on an otherwise idle system\n"
      "producer: fixed 50 ppt / 10 ms reservation; rate pulses double bytes/cycle\n"
      "consumer: real-rate, allocation owned by the feedback controller");

  PipelineParams params;  // The canonical Fig. 6 setup (exp/scenarios.h).
  const PipelineResult r = RunPipelineScenario(params);

  std::printf("top graph: progress rates (bytes/sec); bottom: queue fill level [0,1]\n\n");
  bench::PrintAligned({&r.producer_rate, &r.consumer_rate, &r.fill_level},
                      Duration::Seconds(1));

  // Optional plotting output: REALRATE_CSV_DIR=/tmp ./bench_fig6_responsiveness
  if (const char* dir = std::getenv("REALRATE_CSV_DIR")) {
    const std::string path = std::string(dir) + "/fig6.csv";
    std::ofstream out(path);
    if (out) {
      WriteAlignedSeries(out, {&r.producer_rate, &r.consumer_rate, &r.fill_level});
      std::printf("\n  full-resolution series written to %s\n", path.c_str());
    }
  }

  std::printf("\n  response time to first rate doubling: %.3f s   (paper: ~1/3 s)\n",
              r.response_time_s);
  std::printf("  steady-state |fill - 1/2| deviation:  %.3f\n", r.fill_deviation);
  std::printf("  consumer deadline misses: %lld, quality exceptions: %lld\n\n",
              static_cast<long long>(r.consumer_deadline_misses),
              static_cast<long long>(r.quality_exceptions));
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintFigure6();
  return 0;
}
