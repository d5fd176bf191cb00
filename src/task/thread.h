// SimThread: the schedulable entity. Carries the reservation attributes (proportion,
// period), the controller-facing classification and importance, usage accounting, and
// the thread's work model.
#ifndef REALRATE_TASK_THREAD_H_
#define REALRATE_TASK_THREAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "task/work_model.h"
#include "util/assert.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

enum class ThreadState : uint8_t {
  kRunnable,
  kRunning,
  kBlocked,   // Waiting on a queue/mutex/tty.
  kSleeping,  // Waiting on a timer (budget exhausted, next period, or voluntary).
  kExited,
};

const char* ToString(ThreadState state);

// The controller's taxonomy (paper Figure 2), plus the §3.2 interactive refinement.
enum class ThreadClass : uint8_t {
  kRealTime,          // Proportion and period specified: a reservation; never adapted.
  kAperiodicRealTime, // Proportion specified, period assigned by the controller.
  kRealRate,          // Progress metric visible; controller estimates both.
  kMiscellaneous,     // No information; constant-pressure heuristic.
  kInteractive,       // Tty listener: small period, proportion from burst measurement.
};

const char* ToString(ThreadClass cls);

class ThreadSlabs;

// Scheduling policies recognised by the dispatcher layer.
enum class SchedPolicy : uint8_t {
  kReservation,  // Under the RBS proportion/period policy.
  kOther,        // Default policy (used before registration and by baselines).
};

class SimThread {
 public:
  SimThread(ThreadId id, std::string name, std::unique_ptr<WorkModel> work);

  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  ThreadId id() const { return id_; }
  const std::string& name() const { return name_; }
  WorkModel& work() { return *work_; }

  // Hot-field setters (state, policy, importance, affinity, reservation) write
  // through to the bound slab columns, so they are defined out of line in
  // thread.cc — every other accessor stays inline.

  ThreadState state() const { return state_; }
  void set_state(ThreadState s);
  // One dispatch slice's kRunnable -> kRunning -> kRunnable flip, on the record
  // only: no column sweep runs inside a slice, so the state column and the slabs'
  // runnable count keep kRunnable across it and the flip costs no write-through.
  // A slice that ends in any other state leaves it through set_state.
  void BeginSlice() { state_ = ThreadState::kRunning; }
  void EndSlice() { state_ = ThreadState::kRunnable; }
  // When the thread last became runnable (wake from block/sleep; origin at creation).
  // The deadline-miss check uses it to ignore threads that only wanted CPU for part of
  // the period.
  TimePoint last_wake_time() const { return last_wake_time_; }
  void set_last_wake_time(TimePoint t) { last_wake_time_ = t; }
  bool IsRunnable() const { return state_ == ThreadState::kRunnable; }
  bool HasExited() const { return state_ == ThreadState::kExited; }

  // --- Classification / controller inputs ---
  ThreadClass thread_class() const { return class_; }
  void set_thread_class(ThreadClass c) { class_ = c; }
  SchedPolicy policy() const { return policy_; }
  void set_policy(SchedPolicy p);
  double importance() const { return importance_; }
  void set_importance(double w);

  // --- Core affinity (maintained by the Machine's placement/migration policy) ---
  // The core this thread dispatches on. A thread only ever runs on its assigned core;
  // the Machine moves it with Migrate(), never mid-dispatch.
  CpuId cpu() const { return cpu_; }
  void set_cpu(CpuId core);

  // --- Reservation attributes (actuated by the controller) ---
  Proportion proportion() const { return proportion_; }
  Duration period() const { return period_; }
  void SetReservation(Proportion proportion, Duration period);

  // --- Per-period budget bookkeeping (maintained by the RBS scheduler) ---
  Cycles budget_remaining() const { return budget_remaining_; }
  void set_budget_remaining(Cycles c) { budget_remaining_ = c; }
  // Budget the thread was entitled to at the start of the current period. Deadline
  // misses are judged against this snapshot, so a controller raising the proportion
  // mid-period does not retroactively create "misses".
  Cycles period_entitlement() const { return period_entitlement_; }
  void set_period_entitlement(Cycles c) { period_entitlement_ = c; }
  TimePoint period_start() const { return period_start_; }
  void set_period_start(TimePoint t) { period_start_ = t; }
  int64_t deadline_misses() const { return deadline_misses_; }
  void CountDeadlineMiss() { ++deadline_misses_; }

  // --- Scheduler-private slot ---
  // The thread's position in the run queue of the scheduler instance it is currently
  // enqueued on (set by its AddThread, renumbered and cleared by its RemoveThread;
  // kNoSchedSlot when enqueued nowhere). Exists so the dispatch hot path reaches its
  // per-position state without a hash lookup; no one but the owning scheduler may
  // interpret it. See RbsScheduler::PositionOf.
  static constexpr size_t kNoSchedSlot = SIZE_MAX;
  size_t sched_slot() const { return sched_slot_; }
  void set_sched_slot(size_t slot) { sched_slot_ = slot; }

  // --- Hot-field slab binding (see task/thread_slabs.h) ---
  // The slabs this thread's hot fields are mirrored into (null when unbound). Its
  // slot there is its id().
  ThreadSlabs* bound_slabs() const { return slabs_; }

  // --- Baseline-scheduler bookkeeping ---
  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }
  int counter() const { return counter_; }
  void set_counter(int c) { counter_ = c; }
  int64_t tickets() const { return tickets_; }
  void set_tickets(int64_t t) { tickets_ = t; }

  // --- Usage accounting ---
  void OnRan(Cycles used) {
    RR_EXPECTS(used >= 0);
    total_cycles_ += used;
    window_cycles_ += used;
    cycles_this_period_ += used;
    burst_accum_ += used;
  }
  Cycles total_cycles() const { return total_cycles_; }
  Cycles cycles_this_period() const { return cycles_this_period_; }
  void ResetPeriodCycles() { cycles_this_period_ = 0; }
  // Controller sampling: cycles used since the previous sample.
  Cycles TakeWindowCycles() {
    const Cycles c = window_cycles_;
    window_cycles_ = 0;
    return c;
  }

  // --- Progress counter (bytes/items/keys processed), read by experiments ---
  void AddProgress(int64_t units) { progress_units_ += units; }
  int64_t progress_units() const { return progress_units_; }

  // --- Burst measurement (the §3.2 interactive heuristic: "estimating their
  // proportion by measuring the amount of time they typically run before blocking").
  // OnRan accumulates; the machine calls OnBurstEnd when the thread blocks or sleeps
  // voluntarily, folding the burst into an exponentially weighted average. ---
  void OnBurstEnd() {
    if (burst_accum_ > 0) {
      burst_ewma_ = burst_ewma_ == 0.0
                        ? static_cast<double>(burst_accum_)
                        : 0.7 * burst_ewma_ + 0.3 * static_cast<double>(burst_accum_);
      burst_accum_ = 0;
    }
  }
  double burst_ewma_cycles() const { return burst_ewma_; }

 private:
  friend class ThreadSlabs;  // Sets slabs_ on Bind.

  const ThreadId id_;
  const std::string name_;
  std::unique_ptr<WorkModel> work_;

  ThreadSlabs* slabs_ = nullptr;

  ThreadState state_ = ThreadState::kRunnable;
  ThreadClass class_ = ThreadClass::kMiscellaneous;
  SchedPolicy policy_ = SchedPolicy::kOther;
  double importance_ = 1.0;
  CpuId cpu_ = 0;

  Proportion proportion_ = Proportion::Zero();
  Duration period_ = Duration::Millis(30);  // Paper's default period.

  Cycles budget_remaining_ = 0;
  Cycles period_entitlement_ = 0;
  TimePoint period_start_;
  TimePoint last_wake_time_;
  int64_t deadline_misses_ = 0;

  size_t sched_slot_ = kNoSchedSlot;

  int priority_ = 0;
  int counter_ = 0;
  int64_t tickets_ = 100;

  Cycles total_cycles_ = 0;
  Cycles window_cycles_ = 0;
  Cycles cycles_this_period_ = 0;
  int64_t progress_units_ = 0;
  Cycles burst_accum_ = 0;
  double burst_ewma_ = 0.0;
};

}  // namespace realrate

#endif  // REALRATE_TASK_THREAD_H_
