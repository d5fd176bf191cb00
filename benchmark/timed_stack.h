// Outside-in layer timing for the benchmark's traced runs.
//
// TracedStack wires the same stack as exp/system.h's System — simulator,
// registries, one RbsScheduler per core, Machine, FeedbackAllocator — with two
// differences that leave the schedule untouched:
//   - each core's RbsScheduler reaches the Machine through a TimedScheduler,
//     which forwards every Scheduler virtual and times the call;
//   - the controller is never Start()ed: TracedStack issues RunOnce from the
//     same ScheduleAfter recursion FeedbackAllocator::ScheduleNext uses, so the
//     event-id sequence (and therefore the trace hash) is unchanged.
// Spans are taken around calls into each layer, never inside one: work-model
// time is the gap between MaxGrant returning and OnRan being entered, and the
// machine's own time is whatever the spans leave of the run's wall time.
#ifndef REALRATE_BENCHMARK_TIMED_STACK_H_
#define REALRATE_BENCHMARK_TIMED_STACK_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "exp/system.h"
#include "queue/registry.h"
#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "task/registry.h"

namespace realrate::bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Scheduler time accrued on the calling host thread. A span that can enclose
// scheduler calls — a work slice whose queue push wakes a thread, a controller
// pass that settles skipped ticks — subtracts the growth of this counter over
// its interval, so no nanosecond is attributed to two layers. Thread-local
// because under host_threads > 1 each core's dispatch loop runs on its own
// host thread.
inline thread_local int64_t tl_sched_ns = 0;

// One core's scheduler and work-model spans. Calls, cycles and events are
// counts; *_ns are summed wall nanoseconds.
struct SchedSpans {
  int64_t pick_calls = 0;
  int64_t pick_idle = 0;  // PickNext returned nullptr.
  int64_t pick_ns = 0;
  int64_t tick_calls = 0;     // OnTick plus OnTicksSkipped.
  int64_t ticks_skipped = 0;  // Ticks covered by OnTicksSkipped catch-ups.
  int64_t tick_ns = 0;
  int64_t grant_ns = 0;
  int64_t granted_cycles = 0;
  int64_t account_calls = 0;  // OnRan; ThrottleUntil time is charged here too.
  int64_t account_ns = 0;
  int64_t used_cycles = 0;
  int64_t throttles = 0;
  int64_t state_ns = 0;  // OnWake, OnBlock, AddThread, RemoveThread.
  int64_t wakes = 0;
  int64_t blocks = 0;
  int64_t work_calls = 0;
  int64_t work_ns = 0;  // Work-model slices, minus scheduler calls nested in them.

  int64_t SchedNs() const { return pick_ns + tick_ns + grant_ns + account_ns + state_ns; }

  SchedSpans& operator+=(const SchedSpans& o) {
    pick_calls += o.pick_calls;
    pick_idle += o.pick_idle;
    pick_ns += o.pick_ns;
    tick_calls += o.tick_calls;
    ticks_skipped += o.ticks_skipped;
    tick_ns += o.tick_ns;
    grant_ns += o.grant_ns;
    granted_cycles += o.granted_cycles;
    account_calls += o.account_calls;
    account_ns += o.account_ns;
    used_cycles += o.used_cycles;
    throttles += o.throttles;
    state_ns += o.state_ns;
    wakes += o.wakes;
    blocks += o.blocks;
    work_calls += o.work_calls;
    work_ns += o.work_ns;
    return *this;
  }
};

// Times one core's RbsScheduler. Only that core's dispatch path calls it (from
// its own host thread inside a parallel round, from the event loop otherwise),
// so the accumulators need no synchronisation; the 64-byte alignment keeps
// sibling cores' accumulators off each other's cache lines.
class alignas(64) TimedScheduler final : public Scheduler {
 public:
  explicit TimedScheduler(RbsScheduler& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }

  void AddThread(SimThread* thread) override {
    const int64_t t0 = NowNs();
    inner_.AddThread(thread);
    Charge(t0, spans_.state_ns);
  }
  void RemoveThread(SimThread* thread) override {
    const int64_t t0 = NowNs();
    inner_.RemoveThread(thread);
    Charge(t0, spans_.state_ns);
  }
  void OnTick(TimePoint now) override {
    const int64_t t0 = NowNs();
    inner_.OnTick(now);
    Charge(t0, spans_.tick_ns);
    ++spans_.tick_calls;
  }
  void OnTicksSkipped(int64_t count, TimePoint now) override {
    const int64_t t0 = NowNs();
    inner_.OnTicksSkipped(count, now);
    Charge(t0, spans_.tick_ns);
    ++spans_.tick_calls;
    spans_.ticks_skipped += count;
  }
  SimThread* PickNext(TimePoint now) override {
    const int64_t t0 = NowNs();
    SimThread* pick = inner_.PickNext(now);
    Charge(t0, spans_.pick_ns);
    ++spans_.pick_calls;
    if (pick == nullptr) {
      ++spans_.pick_idle;
    }
    return pick;
  }
  Cycles MaxGrant(SimThread* thread, Cycles tick_remaining) override {
    const int64_t t0 = NowNs();
    const Cycles grant = inner_.MaxGrant(thread, tick_remaining);
    work_start_ = Charge(t0, spans_.grant_ns);
    work_mark_ = tl_sched_ns;
    spans_.granted_cycles += grant;
    return grant;
  }
  // The mailbox gate's plan bound: part of the round gate (machine layer), so
  // forwarded untimed.
  Cycles RoundCycleBound(const SimThread* thread, Cycles tick_cycles) const override {
    return inner_.RoundCycleBound(thread, tick_cycles);
  }
  void OnRan(SimThread* thread, Cycles used, TimePoint now) override {
    const int64_t t0 = NowNs();
    spans_.work_ns += (t0 - work_start_) - (tl_sched_ns - work_mark_);
    ++spans_.work_calls;
    inner_.OnRan(thread, used, now);
    Charge(t0, spans_.account_ns);
    ++spans_.account_calls;
    spans_.used_cycles += used;
  }
  std::optional<TimePoint> ThrottleUntil(SimThread* thread, TimePoint now) override {
    const int64_t t0 = NowNs();
    const std::optional<TimePoint> until = inner_.ThrottleUntil(thread, now);
    Charge(t0, spans_.account_ns);
    if (until) {
      ++spans_.throttles;
    }
    return until;
  }
  void OnWake(SimThread* thread, TimePoint now) override {
    const int64_t t0 = NowNs();
    inner_.OnWake(thread, now);
    Charge(t0, spans_.state_ns);
    ++spans_.wakes;
  }
  void OnBlock(SimThread* thread, TimePoint now) override {
    const int64_t t0 = NowNs();
    inner_.OnBlock(thread, now);
    Charge(t0, spans_.state_ns);
    ++spans_.blocks;
  }

  const SchedSpans& spans() const { return spans_; }
  void ResetSpans() { spans_ = SchedSpans{}; }

 private:
  // Adds [t0, now) to `acc` and to this host thread's scheduler total; returns now.
  static int64_t Charge(int64_t t0, int64_t& acc) {
    const int64_t t1 = NowNs();
    acc += t1 - t0;
    tl_sched_ns += t1 - t0;
    return t1;
  }

  RbsScheduler& inner_;
  SchedSpans spans_;
  int64_t work_start_ = 0;  // When the last MaxGrant returned.
  int64_t work_mark_ = 0;   // tl_sched_ns at that moment.
};

// System's stack with timed schedulers and a timed controller pass. Exposes the
// subset of System's interface the workload wiring uses, so the same template
// code builds a workload on either.
class TracedStack {
 public:
  explicit TracedStack(const SystemConfig& config)
      : sim_(std::make_unique<Simulator>(config.cpu, config.num_cpus)),
        threads_(config.thread_slabs) {
    std::vector<Scheduler*> schedulers;
    for (int i = 0; i < config.num_cpus; ++i) {
      rbs_.push_back(
          std::make_unique<RbsScheduler>(sim_->cpu(static_cast<CpuId>(i)), config.rbs));
      timed_.push_back(std::make_unique<TimedScheduler>(*rbs_.back()));
      schedulers.push_back(timed_.back().get());
    }
    machine_ = std::make_unique<Machine>(*sim_, std::move(schedulers), threads_, config.machine);
    controller_ =
        std::make_unique<FeedbackAllocator>(*machine_, *rbs_[0], queues_, config.controller);
    for (size_t i = 1; i < rbs_.size(); ++i) {
      controller_->WireScheduler(*rbs_[i]);
    }
  }

  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  Simulator& sim() { return *sim_; }
  ThreadRegistry& threads() { return threads_; }
  QueueRegistry& queues() { return queues_; }
  Machine& machine() { return *machine_; }
  FeedbackAllocator& controller() { return *controller_; }

  BoundedBuffer* CreateQueue(std::string name, int64_t capacity_bytes) {
    BoundedBuffer* q = queues_.CreateQueue(std::move(name), capacity_bytes);
    machine_->Attach(q);
    return q;
  }
  SimThread* Spawn(std::string name, std::unique_ptr<WorkModel> work) {
    SimThread* t = threads_.Create(std::move(name), std::move(work));
    machine_->Attach(t);
    return t;
  }

  // System::Start with the controller's recursion issued from here. Spans
  // accrued while building the workload are discarded.
  void Start() {
    machine_->Start();
    ScheduleControllerPass();
    for (auto& t : timed_) {
      t->ResetSpans();
    }
    controller_calls_ = 0;
    controller_ns_ = 0;
  }
  void RunFor(Duration d) { machine_->RunFor(d); }

  SchedSpans Spans() const {
    SchedSpans total;
    for (const auto& t : timed_) {
      total += t->spans();
    }
    return total;
  }
  int64_t controller_calls() const { return controller_calls_; }
  // RunOnce wall time, minus scheduler calls nested in it.
  int64_t controller_ns() const { return controller_ns_; }

 private:
  // FeedbackAllocator::ScheduleNext's recursion, with the RunOnce call timed.
  void ScheduleControllerPass() {
    sim_->ScheduleAfter(controller_->config().interval, [this] {
      const int64_t mark = tl_sched_ns;
      const int64_t t0 = NowNs();
      controller_->RunOnce(sim_->Now());
      controller_ns_ += (NowNs() - t0) - (tl_sched_ns - mark);
      ++controller_calls_;
      ScheduleControllerPass();
    });
  }

  // Declaration order mirrors System's, so construction and teardown run in the
  // same order (the schedulers must die before the registry's threads).
  std::unique_ptr<Simulator> sim_;
  ThreadRegistry threads_;
  QueueRegistry queues_;
  std::vector<std::unique_ptr<RbsScheduler>> rbs_;
  std::vector<std::unique_ptr<TimedScheduler>> timed_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<FeedbackAllocator> controller_;
  int64_t controller_calls_ = 0;
  int64_t controller_ns_ = 0;
};

}  // namespace realrate::bench

#endif  // REALRATE_BENCHMARK_TIMED_STACK_H_
