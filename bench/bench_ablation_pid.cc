// Ablation A1: PID gain sensitivity. The paper (§3.3) uses a PID control law over the
// summed progress pressures; §4.3 notes responsiveness/stability trade-offs. This bench
// sweeps gain settings on the Fig. 6 pipeline and reports response time, steady-state
// fill deviation, and allocation jitter.
#include "bench_util.h"
#include "exp/scenarios.h"

namespace realrate {
namespace {

struct GainSetting {
  const char* name;
  double kp;
  double ki;
  double kd;
};

void PrintAblation() {
  bench::PrintHeader(
      "Ablation A1: PID gains on the Fig. 6 pipeline\n"
      "response = time to 90% of doubled rate; alloc stddev = allocation jitter (ppt)\n"
      "over the steady tail; fill dev = |fill - 1/2| before the first pulse");

  const GainSetting settings[] = {
      {"P only (no integral)", 0.3, 0.0, 0.0},
      {"PI low gain", 0.1, 0.5, 0.0},
      {"PI default", 0.3, 2.0, 0.0},
      {"PI hot", 0.6, 6.0, 0.0},
      {"PID (kd=0.02)", 0.3, 2.0, 0.02},
  };

  std::printf("  %-22s %12s %12s %12s %12s %10s\n", "gains", "response(s)", "settle(s)",
              "fill dev", "alloc sd", "quality");
  for (const GainSetting& g : settings) {
    PipelineParams params;
    params.run_for = Duration::Seconds(20);
    params.controller.estimator.gains.kp = g.kp;
    params.controller.estimator.gains.ki = g.ki;
    params.controller.estimator.gains.kd = g.kd;
    const PipelineResult r = RunPipelineScenario(params);

    RunningStats alloc_tail;
    for (const auto& p : r.consumer_alloc_ppt.points()) {
      if (p.t >= TimePoint::FromNanos(15'000'000'000)) {
        alloc_tail.Add(p.value);
      }
    }
    std::printf("  %-22s %12.3f %12.3f %12.3f %12.1f %10lld\n", g.name, r.response_time_s,
                r.settle_time_s, r.fill_deviation, alloc_tail.stddev(),
                static_cast<long long>(r.quality_exceptions));
  }
  std::printf(
      "\n  P-only never converges the fill level (no integral action to hold the\n"
      "  allocation); hotter gains respond faster at the cost of allocation jitter.\n\n");
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintAblation();
  return 0;
}
