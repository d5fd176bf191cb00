// Figure 5: "Overhead of Controller" — controller CPU overhead versus the number of
// controlled processes. The paper reports a linear fit y = .00066x + .00057 with
// R^2 = .999 and 2.7% overhead at 40 processes, controller at a 10 ms period on a
// 400 MHz Pentium II.
//
// This reproduces the figure on the simulator's calibrated cost model. The wall-clock
// cost of the controller's own computation per controlled thread is benchmark/'s
// `core.runonce.ns_per_thread` row (2048 threads on `dense_pipelines`).
#include <vector>

#include "bench_util.h"
#include "exp/scenarios.h"
#include "util/stats.h"

namespace realrate {
namespace {

void PrintFigure5() {
  bench::PrintHeader(
      "Figure 5: controller overhead vs number of controlled processes\n"
      "paper: linear, y = .00066x + .00057, R^2 = .999; 2.7% of CPU at 40 processes");

  std::vector<double> xs;
  std::vector<double> ys;
  std::printf("  %10s %18s %18s\n", "processes", "overhead(sim)", "overhead(paper)");
  for (int n = 0; n <= 40; n += 5) {
    const ControllerOverheadPoint point = MeasureControllerOverhead(n);
    const double paper = 0.00066 * n + 0.00057;
    std::printf("  %10d %18.5f %18.5f\n", point.num_processes, point.overhead_fraction, paper);
    xs.push_back(n);
    ys.push_back(point.overhead_fraction);
  }
  const LinearFit fit = FitLine(xs, ys);
  std::printf("\n  fit: y = %.5fx + %.5f, R^2 = %.4f   (paper: y = .00066x + .00057, R^2=.999)\n",
              fit.slope, fit.intercept, fit.r_squared);
  std::printf("  overhead at 40 processes: %.2f%%            (paper: 2.7%%)\n\n",
              ys.back() * 100.0);
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintFigure5();
  return 0;
}
