// InvariantOracle: a runtime oracle that rides inside a simulated machine and
// validates machine-level invariants at every dispatch pick, every dispatch tick, and
// every controller iteration:
//
//   - per-core proportion feasibility: the reserved proportions drawn from one core
//     never sum above 100% of that core (the controller's admission + squish pipeline
//     and the Machine's rebalancer must jointly maintain this);
//   - dispatch legality: the scheduler never hands the CPU to a blocked, sleeping, or
//     exited thread, nor to a thread assigned to a different core;
//   - bounded-buffer occupancy: every registered queue's fill stays in [0, capacity];
//   - clock monotonicity: per-core tick times and controller iteration times never
//     move backwards;
//   - trace well-formedness: the structured trace suffix recorded since the previous
//     check passes TraceRecorder::WellFormedError.
//
// Observing a whole System adds the reference re-derivations of its two hot paths:
//
//   - RBS pick (every dispatch): the best reserved thread recomputed by a fresh
//     scan of the core's run queue (RM period rank descending or EDF deadline
//     ascending, admission order breaking ties) must be the pick; with no such
//     thread, the pick must be a legal round-robin fallback. The pick's slab columns
//     must match its object state.
//   - controller state (every iteration): each core's ledger fixed sum equals a scan
//     over the controlled fixed-class threads; each real-rate thread's cached
//     pressure equals a fresh RawPressure over its queues; every controlled
//     thread's slab columns match its object state.
//
// The oracle is a pure observer (see MachineChecker): attaching one leaves the
// schedule bit-identical, so a trace hash taken with the oracle installed pins the
// same behavior as one taken without. Violations are accumulated (bounded) rather
// than thrown, so a fuzzing run can report the first offending seed with context; set
// `abort_on_violation` to crash at the first violation instead (useful under ASan).
#ifndef REALRATE_HARNESS_INVARIANTS_H_
#define REALRATE_HARNESS_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sched/machine.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

class QueueRegistry;
class System;

struct InvariantViolation {
  TimePoint t;
  std::string message;
};

struct OracleConfig {
  // Ceiling for one core's reserved-proportion sum. The controller actually enforces
  // its overload threshold (kOverloadThreshold = 0.95, lowered by deadline-miss
  // backoff); the oracle checks the weaker hard bound Σ <= 1 so it stays valid for
  // rigs that bypass the controller.
  double max_core_allocation = 1.0;
  // Violations recorded verbatim; beyond this they are only counted.
  size_t max_recorded = 16;
  // Abort the process at the first violation (with the message on stderr).
  bool abort_on_violation = false;
};

class InvariantOracle : public MachineChecker {
 public:
  explicit InvariantOracle(const OracleConfig& config = OracleConfig{});

  // Installs the oracle as `machine`'s checker. `queues` (may be null) adds the
  // occupancy check over every buffer in the registry. The observed machine (and,
  // for Observe(System&), the controller's hook) holds a raw reference to this
  // oracle, so the oracle must outlive it — or at least the simulation must never
  // run again after the oracle is destroyed; declare the oracle before the
  // machine/system it observes. Re-observing a fresh machine resets the per-machine
  // watermarks; violation counters accumulate across Observe calls.
  void Observe(Machine& machine, QueueRegistry* queues);
  // Convenience for fully wired systems: machine + queue registry + controller hook.
  void Observe(System& system);

  // MachineChecker:
  void OnPicked(const Machine& machine, CpuId core, const SimThread* pick,
                TimePoint now) override;
  void OnTickComplete(const Machine& machine, CpuId core, TimePoint now) override;

  // Controller-iteration observation (wired by Observe(System&) through
  // FeedbackAllocator::SetPostRunHook).
  void OnControllerRun(const Machine& machine, TimePoint now);

  // End-of-run flush: validates everything recorded after the last in-run sweep
  // (queue occupancy, trace suffix, per-core feasibility). Call once after the final
  // RunFor/RunUntil, before reading the verdict — the tick hooks cannot see events
  // from the closing partial interval.
  void FinishRun(const Machine& machine, TimePoint now);

  bool ok() const { return violation_count_ == 0; }
  int64_t violation_count() const { return violation_count_; }
  const std::vector<InvariantViolation>& violations() const { return violations_; }
  // Observation counters, so tests can prove the hooks actually fired.
  int64_t ticks_observed() const { return ticks_observed_; }
  int64_t picks_observed() const { return picks_observed_; }
  int64_t controller_runs_observed() const { return controller_runs_observed_; }
  // System observation only: picks checked against the re-derived reserved best, the
  // subset made while the core's pick index was active, and controlled threads whose
  // controller state was re-derived.
  int64_t pick_checks() const { return pick_checks_; }
  int64_t indexed_pick_checks() const { return indexed_pick_checks_; }
  int64_t controller_checks() const { return controller_checks_; }

  // One line per recorded violation (plus a tail count when over max_recorded).
  std::string Summary() const;

 private:
  void CheckCoreFeasibility(const Machine& machine, CpuId core, TimePoint now);
  void CheckPick(CpuId core, const SimThread* pick, TimePoint now);
  void CheckController(TimePoint now);
  void CheckQueues(TimePoint now);
  void CheckTrace(const Machine& machine, TimePoint now);
  void Report(TimePoint now, std::string message);

  OracleConfig config_;
  QueueRegistry* queues_ = nullptr;
  System* system_ = nullptr;  // Set by Observe(System&): enables the hot-path checks.
  std::vector<TimePoint> last_tick_;  // Per core; grown on each core's first tick.
  TimePoint last_controller_run_;
  bool controller_ran_ = false;
  size_t trace_checked_ = 0;  // Trace events validated so far.
  int64_t ticks_observed_ = 0;
  int64_t picks_observed_ = 0;
  int64_t controller_runs_observed_ = 0;
  int64_t pick_checks_ = 0;
  int64_t indexed_pick_checks_ = 0;
  int64_t controller_checks_ = 0;
  int64_t violation_count_ = 0;
  std::vector<InvariantViolation> violations_;
};

}  // namespace realrate

#endif  // REALRATE_HARNESS_INVARIANTS_H_
