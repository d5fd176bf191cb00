// Figure 8: "Dispatch Overhead vs. Frequency" — the CPU available to a greedy user
// process as a function of dispatcher frequency, normalized to a 10 ms time slice
// (100 Hz). The paper reports a knee around 4000 Hz with ~2.7% overhead there.
#include <vector>

#include "bench_util.h"
#include "exp/scenarios.h"

namespace realrate {
namespace {

void PrintFigure8() {
  bench::PrintHeader(
      "Figure 8: dispatch overhead vs dispatcher frequency\n"
      "paper: CPU available to user processes, normalized to a 10 ms time slice;\n"
      "knee around 4000 Hz, ~2.7% overhead at the knee");

  const std::vector<double> freqs = {100, 200, 500, 1000, 2000, 3000, 4000, 6000, 8000, 10000};
  std::vector<DispatchOverheadPoint> points;
  points.reserve(freqs.size());
  for (double f : freqs) {
    points.push_back(MeasureDispatchOverhead(f));
  }
  const double base = points.front().cpu_available;

  std::printf("  %12s %16s %16s %14s\n", "freq (Hz)", "cpu available", "normalized",
              "overhead");
  for (const auto& p : points) {
    std::printf("  %12.0f %16.4f %16.4f %13.2f%%\n", p.frequency_hz, p.cpu_available,
                p.cpu_available / base, (1.0 - p.cpu_available / base) * 100.0);
  }

  // Knee: the paper marks it where overhead reaches ~2.7%.
  for (const auto& p : points) {
    if (1.0 - p.cpu_available / base >= 0.027) {
      std::printf("\n  overhead crosses 2.7%% at %.0f Hz   (paper: knee around 4000 Hz)\n\n",
                  p.frequency_hz);
      break;
    }
  }
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintFigure8();
  return 0;
}
