// Differential scheduler harness: executes one generated WorkloadSpec under
// RBS+feedback, lottery, MLFQ, and fixed-priority machines, with the invariant oracle
// riding along, and cross-checks metamorphic properties between runs:
//
//   - clock scaling: doubling clock_hz exactly doubles the dispatch tick's cycle
//     capacity and (for workloads without wall-clock-paced sources) scales delivered
//     user cycles proportionally;
//   - core monotonicity: adding a core to a partitionable load never reduces the user
//     cycles the machine delivers;
//   - seed stability: the same spec on a 1-CPU machine produces the identical trace
//     hash on every run, under every scheduler;
//   - dispatch order: a spec whose pick index switches on is re-run under EDF with
//     the oracle re-deriving every pick (the generator's specs are rate-monotonic);
//   - layout equivalence: the feedback machine re-run with the hot-field slabs
//     disabled (pre-slab memory layout) must reproduce the production run's trace
//     bit for bit;
//   - host-thread equivalence: the feedback machine re-run with the dispatch rounds
//     fanned out over 2 and over hardware_concurrency() OS threads (sim/parallel.h)
//     must reproduce the single-threaded run's trace bit for bit.
//
// CheckSeed() is the unit the realrate_check CLI and the fuzz CTest batch iterate:
// generate the spec for a seed, run the differential battery, return every failure
// with enough context (spec dump + offending trace) to reproduce from the seed alone.
#ifndef REALRATE_HARNESS_DIFFERENTIAL_H_
#define REALRATE_HARNESS_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenarios.h"  // SchedulerKind.
#include "harness/invariants.h"
#include "harness/workload_gen.h"
#include "sched/rbs.h"  // DispatchOrder.
#include "util/time.h"
#include "util/types.h"

namespace realrate {

struct RunOptions {
  SchedulerKind kind = SchedulerKind::kFeedbackRbs;
  // 0 means "use spec.num_cpus".
  int num_cpus_override = 0;
  double clock_multiplier = 1.0;
  // Zero means "use spec.run_for"; otherwise the run lasts exactly this long.
  Duration run_for_override = Duration::Zero();
  // Feedback machine only: run the RBS in work-conserving (background) mode, where
  // budget-exhausted threads may still soak otherwise-idle capacity. Used by the
  // core-monotonicity check, whose throughput claim is demand-bound, not
  // allocation-ramp-bound.
  bool rbs_work_conserving = false;
  // Feedback machine only: the RBS dispatch order. Rate-monotonic, the paper's and the
  // production default; the battery re-runs high-thread specs under EDF so the
  // oracle also checks the pick index's deadline keys.
  DispatchOrder rbs_order = DispatchOrder::kRateMonotonic;
  // Machine idle fast-forward (skip runs of empty dispatch ticks). On by default,
  // like the production configuration; the metamorphic battery re-runs with it off
  // and demands a bit-identical trace.
  bool machine_idle_fast_forward = true;
  // Hot-field slabs (task/thread_slabs.h): the registry's SoA columns, scanned by
  // the dispatch and control layers. On by default (production memory layout); the
  // battery re-runs with them off — the pre-slab pointer-chase layout — and demands
  // a bit-identical trace.
  bool thread_slabs = true;
  // Host OS threads for the machine's dispatch rounds (MachineConfig::host_threads).
  // 1 — the default — is the sequential reference engine; >1 fans eligible rounds
  // out over a ParallelEngine. Any value must be trace-invariant.
  int host_threads = 1;
  // Attach the invariant oracle as the machine checker (on the feedback machine it
  // also re-derives every RBS pick and every controller iteration's state). On by
  // default. The host-thread equivalence pass turns it off for BOTH sides of the
  // comparison: an installed checker pins the machine to the sequential path (its
  // per-tick hooks observe mid-round state), which would make a 1-vs-N comparison
  // vacuous.
  bool attach_oracle = true;
  // Fill RunOutcome::trace_dump when the oracle records violations.
  bool collect_trace_dump = false;
  OracleConfig oracle;
};

struct RunOutcome {
  SchedulerKind kind = SchedulerKind::kFeedbackRbs;
  int num_cpus = 1;
  uint64_t trace_hash = 0;
  Cycles user_cycles = 0;       // CpuUse::kUser summed over every core.
  Cycles cycles_per_tick = 0;   // One core's dispatch-interval capacity.
  int64_t total_progress = 0;   // Σ progress_units over every thread.
  int64_t dispatches = 0;
  // Dispatch rounds the machine fanned out over the parallel engine, and the
  // subset that staked queue ops through the per-core epoch mailboxes. Always
  // zero at host_threads == 1 (the sequential engine never fans out).
  int64_t parallel_rounds = 0;
  int64_t mailbox_rounds = 0;
  // Open-loop arrivals the farms' injectors delivered, summed over every farm.
  int64_t arrivals = 0;
  // Feedback runs with the oracle attached: picks checked against the oracle's
  // re-derived reserved best, the subset made while that core's pick index was
  // active, and controlled threads whose controller state the oracle re-derived.
  int64_t pick_checks = 0;
  int64_t indexed_pick_checks = 0;
  int64_t controller_checks = 0;
  int64_t controller_clean_samples = 0;  // Dirty-set sampler skips.
  int64_t violation_count = 0;
  std::vector<std::string> violations;  // Recorded subset (see OracleConfig).
  std::string trace_dump;               // Only when collect_trace_dump and violations.
};

// Builds the machine described by (spec, options) and runs it with the invariant
// oracle attached. Deterministic: identical inputs produce identical outcomes.
RunOutcome RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

struct SeedCheckOptions {
  // Disables the metamorphic battery (clock scaling / core monotonicity / seed
  // stability), leaving the four per-scheduler invariant runs and the feedback
  // machine's slabs-off and host-thread equivalence runs.
  bool run_metamorphic = true;
  // Attach the first violating run's trace to the report.
  bool collect_trace_dump = true;
  // Widest host-thread count the host-thread equivalence pass runs at, alongside
  // the always-run width 2. 0 means "use std::thread::hardware_concurrency()".
  int equivalence_host_threads = 0;
};

struct SeedReport {
  uint64_t seed = 0;
  WorkloadSpec spec;
  std::vector<std::string> failures;  // Empty <=> the seed passed everything.
  std::string trace_dump;             // First violating run's trace (may be empty).
  // Rounds the host-thread equivalence pass fanned out, summed over its parallel
  // runs — and the subset that were mailbox rounds that staked queue ops (all-hog
  // rounds do not count). realrate_check aggregates these across the battery and
  // fails if mailbox-regime seeds were generated but no round ever staked: that
  // would mean the 1-vs-N comparison quietly stopped exercising parallel queue
  // rounds.
  int64_t equivalence_parallel_rounds = 0;
  int64_t equivalence_mailbox_rounds = 0;
  // Open-loop arrivals the same parallel runs delivered through their injectors'
  // simulator cursors. realrate_check fails a battery whose open-loop seeds
  // delivered none: the 1-vs-N comparison would no longer cover the cursor.
  int64_t equivalence_arrivals = 0;
  // Picks the oracle checked while the core's pick index was active, in the
  // feedback machine's invariant run. realrate_check fails a 100-seed battery that
  // records none: the index would then go unchecked.
  int64_t indexed_pick_checks = 0;
  // The same count for the EDF re-run of a spec whose pick index switched on in
  // that run (0 when it did not). realrate_check fails a 100-seed battery with
  // indexed RM picks but no indexed EDF pick: the deadline keys would go unchecked.
  int64_t edf_indexed_pick_checks = 0;
  bool ok() const { return failures.empty(); }
};

// The full battery for one seed. All schedulers, all metamorphic properties.
SeedReport CheckSeed(uint64_t seed, const SeedCheckOptions& options = SeedCheckOptions{});

}  // namespace realrate

#endif  // REALRATE_HARNESS_DIFFERENTIAL_H_
