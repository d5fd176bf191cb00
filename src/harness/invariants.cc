#include "harness/invariants.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "core/pressure.h"
#include "exp/system.h"
#include "queue/registry.h"
#include "sim/simulator.h"
#include "task/thread.h"

namespace realrate {

namespace {

bool HasReservation(const SimThread* t) {
  return t->policy() == SchedPolicy::kReservation && !t->proportion().IsZero();
}

TimePoint Deadline(const SimThread* t) { return t->period_start() + t->period(); }

}  // namespace

InvariantOracle::InvariantOracle(const OracleConfig& config) : config_(config) {}

void InvariantOracle::Observe(Machine& machine, QueueRegistry* queues) {
  queues_ = queues;
  // Per-machine progress state starts over; violation counters deliberately
  // accumulate across Observe calls so earlier findings cannot vanish silently.
  last_tick_.assign(static_cast<size_t>(machine.num_cpus()), TimePoint::Origin());
  trace_checked_ = 0;
  controller_ran_ = false;
  system_ = nullptr;
  machine.SetChecker(this);
}

void InvariantOracle::Observe(System& system) {
  Observe(system.machine(), &system.queues());
  system_ = &system;
  system.controller().SetPostRunHook(
      [this, &system](TimePoint now) { OnControllerRun(system.machine(), now); });
}

void InvariantOracle::Report(TimePoint now, std::string message) {
  ++violation_count_;
  if (config_.abort_on_violation) {
    std::fprintf(stderr, "invariant violation at %.6fs: %s\n", now.ToSeconds(),
                 message.c_str());
    std::abort();
  }
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back({now, std::move(message)});
  }
}

void InvariantOracle::OnPicked(const Machine& /*machine*/, CpuId core,
                               const SimThread* pick, TimePoint now) {
  ++picks_observed_;
  if (pick->state() != ThreadState::kRunnable) {
    Report(now, "core " + std::to_string(core) + " dispatched thread " +
                    std::to_string(pick->id()) + " (" + pick->name() + ") in state " +
                    ToString(pick->state()));
  }
  if (pick->cpu() != core) {
    Report(now, "core " + std::to_string(core) + " dispatched thread " +
                    std::to_string(pick->id()) + " assigned to core " +
                    std::to_string(pick->cpu()));
  }
  if (system_ != nullptr) {
    CheckPick(core, pick, now);
  }
}

void InvariantOracle::CheckPick(CpuId core, const SimThread* pick, TimePoint now) {
  const RbsScheduler& rbs = system_->rbs(core);
  ++pick_checks_;
  if (rbs.indexing_active()) {
    ++indexed_pick_checks_;
  }
  // The reference pick: a fresh scan in admission order, strict comparisons, so the
  // earliest-admitted thread wins ties.
  const bool edf = rbs.config().order == DispatchOrder::kEarliestDeadlineFirst;
  const SimThread* best = nullptr;
  for (const SimThread* t : rbs.threads()) {
    if (!t->IsRunnable() || !HasReservation(t) || t->budget_remaining() <= 0) {
      continue;
    }
    if (best == nullptr ||
        (edf ? Deadline(t) < Deadline(best)
             : PeriodRank(t->period()) > PeriodRank(best->period()))) {
      best = t;
    }
  }
  auto where = [&] {
    return "core " + std::to_string(core) + " picked thread " +
           std::to_string(pick->id()) + " (" + pick->name() + ")";
  };
  if (best != nullptr && pick != best) {
    Report(now, where() + " but the reserved best is thread " +
                    std::to_string(best->id()) + " (" + best->name() + ")");
  }
  // Round-robin fallback: only threads without a reservation, or budget-exhausted
  // ones in work-conserving mode.
  if (best == nullptr && HasReservation(pick) &&
      !(rbs.config().work_conserving && pick->budget_remaining() <= 0)) {
    Report(now, where() + " as fallback, but it holds an unusable reservation");
  }
  if (pick->bound_slabs() != nullptr && !pick->bound_slabs()->MatchesObject(*pick)) {
    Report(now, where() + " whose slab columns disagree with its object state");
  }
}

void InvariantOracle::OnTickComplete(const Machine& machine, CpuId core, TimePoint now) {
  ++ticks_observed_;
  const auto c = static_cast<size_t>(core);
  if (c >= last_tick_.size()) {
    // Grown here rather than only in Observe() so the monotonicity check also works
    // when the oracle is installed directly through Machine::SetChecker.
    last_tick_.resize(c + 1, TimePoint::Origin());
  }
  if (now < last_tick_[c]) {
    Report(now, "core " + std::to_string(core) + " ticked backwards in time");
  }
  last_tick_[c] = now;
  // Cores tick in lockstep at identical timestamps, so machine-wide sweeps (every
  // core's feasibility, every queue, the trace suffix) run once per timestamp rather
  // than num_cpus times with no added detection power. The sweep rides the last
  // core's tick — the final one of each timestamp's tick group, so it sees every
  // event the group recorded; the ticking core's own feasibility is always checked,
  // so a violation still surfaces within the tick that created it.
  CheckCoreFeasibility(machine, core, now);
  if (core == machine.num_cpus() - 1) {
    for (CpuId other = 0; other < machine.num_cpus() - 1; ++other) {
      CheckCoreFeasibility(machine, other, now);
    }
    CheckQueues(now);
    CheckTrace(machine, now);
  }
}

void InvariantOracle::FinishRun(const Machine& machine, TimePoint now) {
  for (CpuId core = 0; core < machine.num_cpus(); ++core) {
    CheckCoreFeasibility(machine, core, now);
  }
  CheckQueues(now);
  CheckTrace(machine, now);
}

void InvariantOracle::OnControllerRun(const Machine& machine, TimePoint now) {
  ++controller_runs_observed_;
  if (controller_ran_ && now < last_controller_run_) {
    Report(now, "controller iteration moved backwards in time");
  }
  controller_ran_ = true;
  last_controller_run_ = now;
  for (CpuId core = 0; core < machine.num_cpus(); ++core) {
    CheckCoreFeasibility(machine, core, now);
  }
  if (system_ != nullptr) {
    CheckController(now);
  }
}

void InvariantOracle::CheckController(TimePoint now) {
  const FeedbackAllocator& controller = system_->controller();
  std::vector<int64_t> fixed_ppt(static_cast<size_t>(system_->num_cpus()), 0);
  for (const SimThread* t : system_->threads().All()) {
    const std::optional<ThreadClass> cls = controller.ClassOf(t->id());
    if (!cls.has_value()) {
      continue;
    }
    ++controller_checks_;
    auto who = [t] {
      return "controlled thread " + std::to_string(t->id()) + " (" + t->name() + ")";
    };
    const double pressure = controller.LastPressure(t->id());
    if (*cls == ThreadClass::kRealTime || *cls == ThreadClass::kAperiodicRealTime) {
      fixed_ppt[static_cast<size_t>(t->cpu())] += t->proportion().ppt();
    } else if (*cls == ThreadClass::kRealRate &&
               pressure != RawPressure(system_->queues(), t->id())) {
      Report(now, who() + " has a stale cached pressure " + std::to_string(pressure));
    }
    if (const ThreadSlabs* slabs = t->bound_slabs(); slabs != nullptr) {
      if (!slabs->MatchesObject(*t)) {
        Report(now, who() + " has slab columns that disagree with its object state");
      }
      if (slabs->pressure(t->slab_slot()) != pressure) {
        Report(now,
               who() + " has a slab pressure column that disagrees with the controller");
      }
    }
  }
  for (CpuId core = 0; core < system_->num_cpus(); ++core) {
    const int64_t ledger = controller.ledger().fixed_ppt_on(core);
    if (ledger != fixed_ppt[static_cast<size_t>(core)]) {
      Report(now, "core " + std::to_string(core) + " ledger fixed sum " +
                      std::to_string(ledger) + " ppt != scanned " +
                      std::to_string(fixed_ppt[static_cast<size_t>(core)]) + " ppt");
    }
  }
}

void InvariantOracle::CheckCoreFeasibility(const Machine& machine, CpuId core,
                                           TimePoint now) {
  const double reserved = machine.ReservedFractionOn(core);
  if (reserved > config_.max_core_allocation + 1e-9) {
    Report(now, "core " + std::to_string(core) + " over-allocated: reserved " +
                    std::to_string(reserved) + " > " +
                    std::to_string(config_.max_core_allocation));
  }
}

void InvariantOracle::CheckQueues(TimePoint now) {
  if (queues_ == nullptr) {
    return;
  }
  for (const BoundedBuffer* q : queues_->AllQueues()) {
    if (q->fill() < 0 || q->fill() > q->capacity()) {
      Report(now, "queue " + q->name() + " occupancy " + std::to_string(q->fill()) +
                      " outside [0, " + std::to_string(q->capacity()) + "]");
    }
  }
}

void InvariantOracle::CheckTrace(const Machine& machine, TimePoint now) {
  const TraceRecorder& trace = machine.sim().trace();
  // WellFormedError compares the first event of the suffix against its predecessor,
  // so ordering across the incremental-sweep boundary is covered.
  std::string error = trace.WellFormedError(trace_checked_);
  if (!error.empty()) {
    Report(now, std::move(error));
  }
  trace_checked_ = trace.events().size();
}

std::string InvariantOracle::Summary() const {
  std::string out;
  char head[64];
  for (const InvariantViolation& v : violations_) {
    std::snprintf(head, sizeof(head), "[%.6fs] ", v.t.ToSeconds());
    out += head;
    out += v.message;
    out += '\n';
  }
  const auto extra = violation_count_ - static_cast<int64_t>(violations_.size());
  if (extra > 0) {
    out += "... and " + std::to_string(extra) + " more violations\n";
  }
  return out;
}

}  // namespace realrate
