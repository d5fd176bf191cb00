// Single-threaded discrete-event simulator: a virtual clock plus an event queue. All
// higher layers (dispatcher, controller, workloads) advance time only through this.
//
// Ownership: the Simulator owns the virtual clock, the event queue, the trace
// recorder, and one Cpu accounting object per simulated core; everything else
// (Machine, schedulers, registries) borrows it by reference and must not outlive it.
//
// Units: TimePoint/Duration are virtual nanoseconds since TimePoint::Origin();
// nothing in the simulator reads wall-clock time. Cycles are converted to virtual
// time through Cpu::CyclesToDuration at the configured clock rate.
//
// Cursors: an owner that holds a sorted stream of its own (the open-loop request
// injector) registers one cursor with a single delivery callback for its whole life
// and arms it at the stream's next time. Arm draws a seq from the event queue's own
// counter, so the delivery takes exactly the (when, seq) place a ScheduleAt at that
// moment would have taken, and the run loop runs whichever comes first: the earliest
// armed cursor or the heap head. A delivery is not an event: it allocates nothing,
// disarms the cursor (the callback re-arms it), and is not counted by
// events_processed(). With no cursor armed the run loop pays one check per event.
//
// Thread-safety: none — the whole simulation is single-(host-)threaded by design,
// which is what makes runs bit-for-bit deterministic. Multi-core machines are
// simulated by interleaving per-core dispatch events on this one event queue, not by
// host threads. Do not touch a Simulator from more than one host thread.
#ifndef REALRATE_SIM_SIMULATOR_H_
#define REALRATE_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/event_queue.h"
#include "sim/trace.h"
#include "util/time.h"

namespace realrate {

class Simulator {
 public:
  // A machine with `num_cpus` homogeneous cores (same CpuConfig each). The default is
  // the paper's uniprocessor.
  explicit Simulator(const CpuConfig& cpu_config = CpuConfig{}, int num_cpus = 1);

  TimePoint Now() const { return now_; }

  // Core accessors. `cpu()` with no argument is core 0 — the boot core — which keeps
  // every pre-SMP call site meaning exactly what it used to on a 1-core machine.
  Cpu& cpu(CpuId core = 0) {
    RR_EXPECTS(core >= 0 && static_cast<size_t>(core) < cpus_.size());
    return cpus_[static_cast<size_t>(core)];
  }
  const Cpu& cpu(CpuId core = 0) const {
    RR_EXPECTS(core >= 0 && static_cast<size_t>(core) < cpus_.size());
    return cpus_[static_cast<size_t>(core)];
  }
  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  // Cycles charged to `category` summed over every core.
  Cycles UsedAllCpus(CpuUse category) const;

  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  // Schedules `fn` at absolute time `t` (must not be in the past).
  EventId ScheduleAt(TimePoint t, EventQueue::Callback fn);
  // Schedules `fn` after `d` (must be non-negative).
  EventId ScheduleAfter(Duration d, EventQueue::Callback fn);
  bool Cancel(EventId id) { return events_.Cancel(id); }
  // Retires `id` (if still pending) and schedules `fn` at `t` in one call — the
  // decrease-key-free resched path for periodic clocks (dispatch ticks, timers).
  EventId Resched(EventId id, TimePoint t, EventQueue::Callback fn) {
    RR_EXPECTS(t >= now_);
    return events_.Resched(id, t, std::move(fn));
  }

  // Registers a cursor that calls `deliver` each time it comes due. It starts
  // disarmed. Not callable from inside a delivery.
  using CursorId = uint32_t;
  CursorId AddCursor(EventQueue::Callback deliver);
  // Disarms and releases `id`; its callback never runs again. The owner calls this
  // before it dies. Not callable from inside a delivery.
  void RemoveCursor(CursorId id);
  // Schedules the next delivery of the disarmed cursor `id` at `when` (not in the
  // past), in the order a ScheduleAt(when, ...) made now would run.
  void Arm(CursorId id, TimePoint when);

  // Runs the next event or cursor delivery; returns false if neither is pending.
  bool Step();
  // If the earliest pending event is exactly {id, t} and no armed cursor comes
  // before it, consumes it WITHOUT running its callback (the caller runs the
  // equivalent work itself) and returns true; otherwise leaves the queue untouched
  // and returns false. events_processed() counts a consumed event like a stepped
  // one, so the parallel engine's batched tick rounds keep the same event
  // accounting as the one-at-a-time reference engine.
  bool PopExpected(EventId id, TimePoint t);
  // Runs all events and deliveries with timestamps <= t, then sets the clock to t.
  void RunUntil(TimePoint t);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Heap events run or consumed; cursor deliveries are not events.
  uint64_t events_processed() const { return events_processed_; }
  // Pending heap events plus armed cursors.
  size_t pending_events() const;

 private:
  struct Cursor {
    EventQueue::Callback deliver;  // Null once removed.
    EventQueue::Position at;       // The pending delivery, while armed.
    bool armed = false;
  };
  static constexpr size_t kNoCursor = ~size_t{0};

  // Runs the earliest event or delivery if its time is <= `limit`; false otherwise.
  bool RunNext(TimePoint limit);
  // The bound a heap event must come before to run ahead of the cursors: the
  // earliest armed cursor's position if it is due by `limit`, else all of `limit`.
  EventQueue::Position HeapBound(TimePoint limit) const;
  // Recomputes next_cursor_ over the armed cursors.
  void FindNextCursor();

  TimePoint now_ = TimePoint::Origin();
  EventQueue events_;
  std::vector<Cursor> cursors_;
  size_t next_cursor_ = kNoCursor;  // The earliest armed cursor.
  bool delivering_ = false;         // Inside a cursor's callback.
  std::vector<Cpu> cpus_;
  TraceRecorder trace_;
  uint64_t events_processed_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_SIM_SIMULATOR_H_
