// Scenario builders reproducing the paper's experiments. Each returns the series and
// summary statistics the corresponding figure plots; benches print them, integration
// tests assert on them.
#ifndef REALRATE_EXP_SCENARIOS_H_
#define REALRATE_EXP_SCENARIOS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/controller.h"
#include "sched/scheduler.h"
#include "sim/cpu.h"
#include "util/time.h"
#include "util/time_series.h"
#include "util/types.h"

namespace realrate {

// ---------------------------------------------------------------------------
// Fig. 6 / Fig. 7: the pulse pipeline.
// ---------------------------------------------------------------------------

struct PipelineParams {
  double clock_hz = 400e6;  // 400 MHz Pentium II.

  // Producer: a real-time reservation (its allocation is fixed; only its bytes/cycle
  // production rate varies).
  Proportion producer_proportion = Proportion::Ppt(50);  // 5%.
  Duration producer_period = Duration::Millis(10);
  Cycles producer_cycles_per_item = 400'000;
  double base_bytes_per_item = 100.0;
  double doubled_bytes_per_item = 200.0;

  // Consumer: real-rate; the controller owns its allocation.
  Cycles consumer_cycles_per_byte = 2'000;

  int64_t queue_bytes = 4'000;

  // Fig. 7 adds a miscellaneous CPU hog competing for the remaining capacity.
  bool with_hog = false;
  double hog_importance = 1.0;
  double consumer_importance = 1.0;

  // Pulse program: start of first pulse, widths of rising then falling pulses, gap.
  TimePoint pulses_start = TimePoint::FromNanos(5'000'000'000);  // t = 5 s.
  std::vector<Duration> rising_widths = {Duration::Seconds(4), Duration::Seconds(2),
                                         Duration::Seconds(1)};
  std::vector<Duration> falling_widths = {Duration::Seconds(4), Duration::Seconds(2),
                                          Duration::Seconds(1)};
  Duration pulse_gap = Duration::Seconds(3);

  Duration run_for = Duration::Seconds(45);
  Duration sample_period = Duration::Millis(100);

  // Controller knobs (ablations override these).
  ControllerConfig controller;
};

struct PipelineResult {
  // The Fig. 6 top graph: progress rates in bytes/sec.
  TimeSeries producer_rate;
  TimeSeries consumer_rate;
  // The Fig. 6 bottom graph: queue fill level in [0, 1].
  TimeSeries fill_level;
  // The Fig. 7 graphs: allocations in parts-per-thousand and production rate in
  // bytes/Kcycle.
  TimeSeries producer_alloc_ppt;
  TimeSeries consumer_alloc_ppt;
  TimeSeries hog_alloc_ppt;
  TimeSeries production_bytes_per_kcycle;

  // Seconds for the consumer's progress rate to reach 90% of the doubled target after
  // the first rising pulse (the paper: "roughly 1/3 of a second").
  double response_time_s = 0.0;
  // Seconds for the fill level to return within +/-0.05 of the 1/2 set point (and stay
  // there for 0.5 s) after the first rising pulse. A stricter settling measure used by
  // the gain ablation.
  double settle_time_s = 0.0;

  int64_t quality_exceptions = 0;
  int64_t squish_events = 0;
  int64_t consumer_deadline_misses = 0;
  uint64_t trace_hash = 0;
  double consumer_final_alloc_ppt = 0.0;
  double hog_final_alloc_ppt = 0.0;
  // Mean absolute deviation of fill level from the 1/2 set point over the steady tail.
  double fill_deviation = 0.0;
};

PipelineResult RunPipelineScenario(const PipelineParams& params);

// ---------------------------------------------------------------------------
// Fig. 5: controller overhead vs number of controlled processes.
// ---------------------------------------------------------------------------

struct ControllerOverheadPoint {
  int num_processes = 0;
  double overhead_fraction = 0.0;  // Controller CPU / total CPU, 1 == 100%.
};

// Measures the controller overhead with `num_processes` controlled-but-idle dummy
// threads, controller at 10 ms period, over `run_for` of virtual time.
ControllerOverheadPoint MeasureControllerOverhead(int num_processes,
                                                  Duration run_for = Duration::Seconds(2));

// ---------------------------------------------------------------------------
// Fig. 8: dispatch overhead vs dispatcher frequency.
// ---------------------------------------------------------------------------

struct DispatchOverheadPoint {
  double frequency_hz = 0.0;
  double cpu_available = 0.0;  // Fraction of CPU a hog could grab.
};

DispatchOverheadPoint MeasureDispatchOverhead(double frequency_hz,
                                              Duration run_for = Duration::Seconds(3));

// ---------------------------------------------------------------------------
// §4.4 benefits: priority inversion (Mars Pathfinder) and starvation.
// ---------------------------------------------------------------------------

enum class SchedulerKind {
  kFeedbackRbs,     // Our system: RBS + feedback allocator.
  kFixedPriority,   // Fixed real-time priorities.
  kMlfq,            // Linux 2.x multi-level feedback.
  kLottery,         // Lottery scheduling.
};

const char* ToString(SchedulerKind kind);

// Builds one run-queue instance of a baseline scheduler (`kind` must not be
// kFeedbackRbs — feedback rigs are wired through System). `cpu` is the core the
// instance will serve (MLFQ reads its clock); `lottery_seed` feeds the lottery
// baseline's injected Rng. The single factory keeps the figure scenarios and the
// differential fuzz harness comparing identically configured baselines.
std::unique_ptr<Scheduler> MakeBaselineScheduler(SchedulerKind kind, const Cpu& cpu,
                                                 uint64_t lottery_seed);

struct PathfinderResult {
  // The high-"importance" periodic task's lock-acquisition waits.
  double high_max_wait_s = 0.0;
  // Max wait over acquisitions begun after t = 2 s, i.e. excluding the feedback
  // controller's allocation ramp-up.
  double high_max_wait_steady_s = 0.0;
  // True when the high task was still blocked on the mutex at simulation end — the
  // unbounded-inversion signature.
  bool high_still_blocked = false;
  int64_t high_acquisitions = 0;
  int64_t low_acquisitions = 0;
  // CPU fractions obtained by each thread.
  double high_cpu = 0.0;
  double medium_cpu = 0.0;
  double low_cpu = 0.0;
};

// `lottery_seed` feeds the lottery baseline's injected Rng (ignored by the other
// schedulers): every stochastic component in the tree draws from an explicitly
// seeded util/rng engine, so scenario runs are replayable from their parameters.
PathfinderResult RunPathfinderScenario(SchedulerKind kind,
                                       Duration run_for = Duration::Seconds(10),
                                       uint64_t lottery_seed = 1234);

struct StarvationResult {
  // Two CPU hogs; under priorities the lesser one starves, under the allocator both
  // make progress weighted by importance.
  double favored_cpu = 0.0;
  double lesser_cpu = 0.0;
  bool lesser_starved = false;  // Lesser thread received < 0.1% of the CPU.
};

StarvationResult RunStarvationScenario(SchedulerKind kind, double importance_ratio = 4.0,
                                       Duration run_for = Duration::Seconds(5),
                                       uint64_t lottery_seed = 1234);

// ---------------------------------------------------------------------------
// Server farm: hundreds to thousands of pipeline threads on a few cores — the
// production-scale workload the indexed dispatch hot path (sched/rbs.h) and the
// Machine's idle fast-forward exist for.
// ---------------------------------------------------------------------------

// `num_pipelines` producer → consumer pairs plus `num_hogs` background soakers on a
// `num_cpus`-core machine. Producers hold small real-time reservations with periods
// cycled through a spread of values (so the rate-monotonic index carries many
// distinct ranks); consumers are real-rate under the feedback controller; hogs are
// miscellaneous. Thread count = 2 * num_pipelines + num_hogs. The default clock
// models a modern server core rather than the paper's 400 MHz testbed, keeping the
// per-10 ms controller pass (which is O(threads)) a realistic fraction of a core.
// Set to the paper's 400 MHz clock and Fig. 6 pipeline shape, a handful of pipelines
// per core is the SMP scaling scenario (tests/smp_test.cc, SmpScenarioTest).
struct ServerFarmParams {
  int num_cpus = 4;
  int num_pipelines = 256;
  int num_hogs = 4;
  double clock_hz = 2.4e9;

  Proportion producer_proportion = Proportion::Ppt(4);
  Cycles producer_cycles_per_item = 60'000;
  double bytes_per_item = 64.0;
  Cycles consumer_cycles_per_byte = 400;
  int64_t queue_bytes = 2'048;
  // Producer period for pipeline i: kPeriodSpreadMs[i % spread] milliseconds.
  // (See scenarios.cc; 5..40 ms.)

  Duration run_for = Duration::Millis(500);

  // Scheduler/machine knobs (the golden test A/Bs fast-forward on/off on the same
  // workload). Defaults are the production configuration.
  RbsConfig rbs;
  bool idle_fast_forward = true;
  // Control-plane knobs. Defaults are the production configuration.
  ControllerConfig controller;
  // Memory-layout knob (SystemConfig::thread_slabs): hot-field slab columns on
  // (production) vs the pre-slab SimThread pointer chase — the golden
  // slab-equivalence test's two sides.
  bool thread_slabs = true;
  // Host OS threads driving the simulated cores (MachineConfig::host_threads).
  // Any value produces the same trace hash — bench_parallel_engine's scaling axis
  // and the 1-vs-N equivalence tests' knob.
  int host_threads = 1;
};

struct ServerFarmResult {
  int num_cpus = 0;
  int num_threads = 0;
  // Aggregate dispatcher activity over the run: schedule() invocations.
  int64_t total_dispatches = 0;
  int64_t context_switches = 0;
  int64_t migrations = 0;
  int64_t idle_suspensions = 0;
  // Tick rounds the parallel engine actually fanned out (0 at host_threads = 1).
  int64_t parallel_rounds = 0;
  // The subset of parallel_rounds that staked queue operations against
  // pre-reserved mailbox stakes (all-hog rounds do not count).
  int64_t mailbox_rounds = 0;
  double aggregate_user_fraction = 0.0;
  int64_t total_consumed_bytes = 0;
  int64_t squish_events = 0;
  int64_t quality_exceptions = 0;
  uint64_t trace_hash = 0;
};

ServerFarmResult RunServerFarmScenario(const ServerFarmParams& params);

// ---------------------------------------------------------------------------
// §4.4: the media pipeline whose decoder stage needs far more CPU than the rest.
// ---------------------------------------------------------------------------

struct MediaPipelineResult {
  // Realized CPU shares of the three stages (ppt of the whole run) — the allocations
  // the controller converged on, free of sampling aliasing.
  double parse_ppt = 0.0;
  double decode_ppt = 0.0;
  double render_ppt = 0.0;
  // Whether every inter-stage queue settled near half-full.
  double max_fill_deviation = 0.0;
  int64_t rendered_bytes = 0;
};

MediaPipelineResult RunMediaPipelineScenario(Duration run_for = Duration::Seconds(20));

}  // namespace realrate

#endif  // REALRATE_EXP_SCENARIOS_H_
