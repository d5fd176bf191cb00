// Miscellaneous work models: CPU hog, interactive job, mutex-based
// critical-section worker, and a kernel-driven arrival process (models network RX or a
// disk-as-producer feeding a queue from interrupt context).
#ifndef REALRATE_WORKLOADS_MISC_WORK_H_
#define REALRATE_WORKLOADS_MISC_WORK_H_

#include <vector>

#include "queue/bounded_buffer.h"
#include "queue/sim_mutex.h"
#include "queue/tty.h"
#include "sim/simulator.h"
#include "task/work_model.h"
#include "util/rng.h"

namespace realrate {

// Consumes nothing: parks itself with a far-future sleep on first dispatch. Fig. 5's
// "dummy processes that consume no CPU but are scheduled, monitored, and controlled."
class IdleWork : public WorkModel {
 public:
  RunResult Run(TimePoint now, Cycles granted) override;
};

// Consumes every cycle it is given; never blocks. "a miscellaneous job (no
// progress-metric) that tries to consume as much CPU as it can" (Fig. 7's competing
// load). Progress counts "keys attempted" per §4.5's password-cracker example.
class CpuHogWork : public WorkModel {
 public:
  explicit CpuHogWork(Cycles cycles_per_key = 1000);
  RunResult Run(TimePoint now, Cycles granted) override;
  // Purely thread-local: consumes any grant, only bumps its own key counter.
  Cycles RoundLocalCycles(TimePoint now) const override;

 private:
  const Cycles cycles_per_key_;
  Cycles into_key_ = 0;
};

// A hog that sleeps until `start_at`, then consumes every cycle. Lets scenarios stage
// load arrival (e.g. the Pathfinder medium-priority load appearing while the low task
// holds the mutex).
class DelayedHogWork : public WorkModel {
 public:
  explicit DelayedHogWork(TimePoint start_at) : start_at_(start_at) {}
  RunResult Run(TimePoint now, Cycles granted) override;
  // Thread-local once started; before start_at_ the first Run sleeps (not local).
  Cycles RoundLocalCycles(TimePoint now) const override;

 private:
  const TimePoint start_at_;
};

// Interactive job: blocks on a tty, services each input event with a burst of cycles,
// then blocks again — "interactive jobs are servers that listen to ttys."
class InteractiveWork : public WorkModel {
 public:
  InteractiveWork(TtyPort* tty, Cycles cycles_per_event);
  RunResult Run(TimePoint now, Cycles granted) override;
  int64_t events_serviced() const { return serviced_; }

 private:
  TtyPort* const tty_;
  const Cycles cycles_per_event_;
  Cycles into_event_ = 0;
  bool event_in_hand_ = false;
  int64_t serviced_ = 0;
};

// Repeatedly: lock -> hold (burn `hold_cycles` inside the critical section) -> unlock
// -> sleep `think_sleep`. With priorities assigned around it, this is the
// Mars-Pathfinder inversion scenario's building block. Records lock-acquisition waits.
class LockWork : public WorkModel {
 public:
  LockWork(SimMutex* mutex, Cycles hold_cycles, Duration think_sleep);
  RunResult Run(TimePoint now, Cycles granted) override;
  void OnWake(TimePoint now) override;

  int64_t acquisitions() const { return acquisitions_; }
  const std::vector<double>& wait_seconds() const { return waits_; }
  double MaxWaitSeconds() const;
  // Max over waits whose acquisition began at or after `after` (ignores warm-up).
  double MaxWaitSecondsAfter(TimePoint after) const;
  // A wait that never completed (blocked at simulation end) — the inversion signature.
  bool still_waiting() const { return waiting_; }
  TimePoint wait_start() const { return wait_start_; }

 private:
  enum class Phase { kAcquiring, kHolding };
  SimMutex* const mutex_;
  const Cycles hold_cycles_;
  const Duration think_sleep_;
  Phase phase_ = Phase::kAcquiring;
  Cycles into_phase_ = 0;
  TimePoint wait_start_;
  bool waiting_ = false;
  bool lock_granted_on_wake_ = false;
  int64_t acquisitions_ = 0;
  std::vector<double> waits_;
  std::vector<TimePoint> wait_starts_;
};

// Kernel-context arrival process: pushes `bytes_per_arrival` into a queue at intervals
// drawn from an exponential distribution (Poisson arrivals), optionally with bursts.
// Runs as simulator events, not as a thread — it models I/O producers (network RX ring,
// disk readahead) whose progress the scheduler can see only through the queue.
class ArrivalProcess {
 public:
  struct Config {
    int64_t bytes_per_arrival = 512;
    Duration mean_interarrival = Duration::Millis(5);
    // Deterministic arrivals if false (fixed spacing); Poisson if true.
    bool poisson = true;
    uint64_t seed = 42;
  };

  ArrivalProcess(Simulator& sim, BoundedBuffer* queue, const Config& config);

  // Begins injecting arrivals; runs until the simulation ends or Stop().
  void Start();
  void Stop() { running_ = false; }

  int64_t arrivals() const { return arrivals_; }
  int64_t dropped_bytes() const { return dropped_bytes_; }

 private:
  void ScheduleNext();

  Simulator& sim_;
  BoundedBuffer* const queue_;
  Config config_;
  Rng rng_;
  bool running_ = false;
  int64_t arrivals_ = 0;
  int64_t dropped_bytes_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_WORKLOADS_MISC_WORK_H_
