// Machine: the simulated kernel's dispatch engine, generalized to N CPUs. Each core
// owns a dispatch clock (the paper's 1 ms dispatch interval), a scheduler instance
// (its run queue), and its own overhead/backlog accounting; the Machine additionally
// owns the global timer subsystem (sleeper wheel, serviced by core 0 — the boot core),
// the least-loaded placement policy for new threads, and the periodic rebalancer that
// migrates threads off proportion-over-subscribed cores.
//
// The paper's squish/overload logic operates within one core's 100% budget (see
// core/controller.h); the Machine is what turns N such budgets into one machine by
// deciding which core each thread's proportion is drawn from.
//
// Idle fast-forward (config.idle_fast_forward, on by default): when a dispatch round
// ends with no runnable thread anywhere and no overhead backlog, the Machine stops
// scheduling per-tick callbacks and suspends its dispatch clocks — the event-driven
// alternative to burning one simulator event per empty tick. The next machine-visible
// stimulus resumes them: a wake (queue/mutex/tty/timer), a new thread, a migration, or
// an overhead charge. Sleeper expiries are covered by a single "horizon" event armed
// at the tick that would service the earliest sleeper. On resume the skipped ticks are
// replayed in bulk — tick/dispatch counters, timer/dispatch/idle charges, and the
// schedulers' OnTicksSkipped catch-up — so counters, accounting, budgets, and the
// trace are bit-identical to a machine that ticked through the idle span (the
// differential harness cross-checks this equivalence over fuzz seeds). The only
// observable difference is that MachineChecker::OnTickComplete is not invoked for
// skipped ticks (there was, by construction, nothing to check). RunFor() settles the
// catch-up at the end of a run; callers driving the Simulator directly should prefer
// Machine::RunFor when they read tick-granularity introspection afterwards.
//
// Ownership: the Machine borrows the Simulator, the per-core Schedulers, and the
// ThreadRegistry — all must outlive it. It owns nothing but its per-core bookkeeping.
//
// Units: all externally visible quantities are either simulated Cycles (work,
// budgets, overheads) or virtual-time Duration/TimePoint (dispatch interval, sleep
// deadlines). dispatch_hz() is dispatches per virtual second. Nothing here is
// wall-clock.
//
// Thread-safety: the public API is single-(host-)threaded — like everything above the
// Simulator, it runs inside simulator events on the event-loop thread. With
// config.host_threads > 1 the Machine additionally runs *gated* dispatch rounds
// across a ParallelEngine: when every core's tick event is at the queue head and the
// round gate (RoundPlanIsFeasible) admits every runnable thread — as a hog, or as a
// queue plan that fits pre-claimed BoundedBuffer stakes — the per-core dispatch
// loops run concurrently, one host thread per simulated core, staging trace records
// and throttle-sleeps into per-core lanes that the coordinator merges at the epoch
// barrier in ascending core order. Anything else — an installed checker, an
// interleaved event, a thread that might block/wake/migrate — falls back to the
// sequential reference path, so the schedule, the event-id sequence, and the trace
// are bit-identical at every host_threads value (tests/parallel_engine_test.cc and
// the fuzz battery's 1-vs-N equivalence pass pin this). See docs/ARCHITECTURE.md,
// "The parallel engine".
//
// Single-CPU compatibility: a Machine built with one scheduler (the legacy
// constructor) schedules exactly the same events, in the same order, with the same
// costs as the pre-SMP implementation, so cpus=1 traces are bit-identical to the
// original single-CPU machine (tests/smp_test.cc pins this).
#ifndef REALRATE_SCHED_MACHINE_H_
#define REALRATE_SCHED_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "queue/bounded_buffer.h"
#include "queue/sim_mutex.h"
#include "queue/tty.h"
#include "sched/scheduler.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "task/registry.h"

namespace realrate {

class Machine;

// Observation interface for runtime invariant oracles (src/harness). The Machine
// invokes an installed checker synchronously from inside the dispatch engine, so a
// checker sees every scheduling decision at the instant it is made. Checkers must be
// read-only observers: they may walk the machine, registry, and trace, but must not
// mutate simulation state — installing one must leave the schedule bit-identical.
// Ticks elided by idle fast-forward do not invoke OnTickComplete: they dispatched
// nothing, and their accounting is settled in bulk at resume time.
class MachineChecker {
 public:
  virtual ~MachineChecker() = default;
  // After `core`'s scheduler picked `pick` (never null) and before `pick` runs.
  virtual void OnPicked(const Machine& machine, CpuId core, const SimThread* pick,
                        TimePoint now) = 0;
  // After `core`'s dispatch tick completed.
  virtual void OnTickComplete(const Machine& machine, CpuId core, TimePoint now) = 0;
};

struct MachineConfig {
  // The dispatch interval (upper-bounded by the timer interval; 1 ms in the paper).
  Duration dispatch_interval = Duration::Millis(1);
  // If false, dispatch/context-switch/timer costs are not deducted from capacity
  // (useful for pure-policy unit tests that want exact cycle math).
  bool charge_overheads = true;
  // Skip runs of empty dispatch ticks instead of scheduling a callback per tick (see
  // the header comment). Behavior-preserving; disable only to A/B the event count or
  // to debug the catch-up path itself.
  bool idle_fast_forward = true;
  // Host OS threads driving the simulated cores. 1 (the default) is the reference
  // engine: every event runs on the caller's thread. N > 1 runs gated dispatch
  // rounds one-host-thread-per-core (clamped to the core count) with bit-identical
  // results — same schedule, same trace hash, same event ids — at any value.
  int host_threads = 1;
};

class Machine {
 public:
  // --- SMP rebalancer policy (unused on a 1-core machine) ---
  // How often the rebalancer looks for proportion-over-subscribed cores.
  static constexpr Duration kRebalanceInterval = Duration::Millis(100);
  // A core whose reserved-proportion sum exceeds this is over-subscribed: the
  // rebalancer migrates its smallest reservations to the least-loaded core for as
  // long as each move strictly reduces the machine's load spread. Just under the
  // controller's 0.95 admission ceiling, so a core pinned at the squish ceiling
  // counts as over-subscribed.
  static constexpr double kRebalanceThreshold = 0.9;

  // Single-core machine (the paper's uniprocessor): `scheduler` is core 0's run
  // queue. Requires a 1-CPU simulator.
  Machine(Simulator& sim, Scheduler& scheduler, ThreadRegistry& registry,
          const MachineConfig& config = MachineConfig{});
  // SMP machine: one scheduler (run queue) per core, in core-id order. Requires
  // schedulers.size() == sim.num_cpus().
  Machine(Simulator& sim, std::vector<Scheduler*> schedulers, ThreadRegistry& registry,
          const MachineConfig& config = MachineConfig{});

  // Schedules the first tick on every core (and the rebalancer on SMP machines).
  // Call once before Simulator::Run*.
  void Start();

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  Scheduler& scheduler(CpuId core = 0) { return *CoreAt(core).scheduler; }
  ThreadRegistry& registry() { return registry_; }
  const ThreadRegistry& registry() const { return registry_; }

  // Installs (or clears, with nullptr) the invariant-oracle hook. The checker is
  // borrowed and must outlive the machine or be cleared before destruction.
  void SetChecker(MachineChecker* checker) { checker_ = checker; }

  // Migration observer: invoked synchronously from every Migrate() (controller
  // steering and the rebalancer alike) after the thread's affinity moved. The
  // feedback controller installs one to keep its per-core BudgetLedger registered
  // with where each fixed reservation's proportion is drawn from. One observer at a
  // time; install nullptr to clear (the controller's destructor does). The hook must
  // not mutate machine state.
  using MigrationHook = std::function<void(SimThread*, CpuId from, CpuId to)>;
  void SetMigrationHook(MigrationHook hook) { migration_hook_ = std::move(hook); }
  const MachineConfig& config() const { return config_; }
  double dispatch_hz() const { return 1.0 / config_.dispatch_interval.ToSeconds(); }
  int num_cpus() const { return static_cast<int>(cores_.size()); }

  // Adds a thread to the machine (it must already be in the registry): places it on
  // the least-loaded core and enqueues it with that core's scheduler.
  void Attach(SimThread* thread);

  // Wires a wait object's wake callback to this machine.
  void Attach(BoundedBuffer* queue);
  void Attach(SimMutex* mutex);
  void Attach(TtyPort* tty);

  // Wakes a blocked thread (queue/mutex/tty callbacks land here) on its assigned
  // core. Waking a thread that is not blocked is a no-op (spurious wake).
  void Wake(ThreadId thread_id);

  // Puts `thread` (currently runnable) to sleep until `wake_at`.
  void SleepUntil(SimThread* thread, TimePoint wake_at);

  // Wakes a sleeping thread before its timer expires (e.g. the controller raised its
  // budget mid-period). No-op unless the thread is kSleeping.
  void CancelSleep(SimThread* thread);

  // Deducts external overhead (e.g. the user-level controller's computation) from the
  // capacity of `core`'s upcoming ticks and charges the given accounting category.
  // The user-level controller runs on the boot core, hence the default.
  void StealCycles(CpuUse category, Cycles cycles, CpuId core = 0);

  // Settles idle-fast-forward catch-up through (but excluding) a tick at `now`, so an
  // external observer running before this timestamp's tick — the controller, above
  // all — sees exactly the state a continuously ticking machine would show it.
  // No-op unless suspended. Does not resume the dispatch clocks.
  void SyncSkippedTicks(TimePoint now);

  // Cluster epoch fence: asserts the machine is quiescent for cross-machine
  // mutation (no parallel dispatch round in flight) and settles idle-fast-forward
  // catch-up at `now`, so the cluster layer's epoch-boundary reads (ledger spare,
  // queue pressure) and migrations observe exactly the state a continuously
  // ticking machine would show. The cluster rebalancer must call this before
  // touching any cross-machine state — the same epoch contract the parallel
  // engine enforces within one machine, one level up.
  void EpochFence(TimePoint now);
  int64_t epoch_fences() const { return epoch_fences_; }

  // --- Placement / migration (the SMP policy surface) ---
  // The core Attach would place a new thread on right now: smallest reserved
  // proportion, ties broken by fewest attached threads, then lowest core id.
  // `placing` (if non-null) is excluded from the census — pass the thread being
  // placed when it is already registered.
  CpuId LeastLoadedCore(const SimThread* placing = nullptr) const;
  // Moves `thread` to `core`: removes it from its current core's run queue, updates
  // its affinity, and enqueues it with the target scheduler. No-op if already there.
  // Must not be called for a thread that is currently on-CPU (mid-dispatch).
  void Migrate(SimThread* thread, CpuId core);
  // Sum of reserved proportions (fractions of one core) of threads assigned to
  // `core`, optionally excluding one thread.
  double ReservedFractionOn(CpuId core, const SimThread* excluding = nullptr) const;
  // Live (non-exited) threads assigned to `core`, optionally excluding one thread.
  // O(1) with slabs (the slabs' per-core census), a registry sweep without.
  int ThreadCountOn(CpuId core, const SimThread* excluding = nullptr) const;

  // Convenience: run the simulation for `d` of virtual time, then settle any pending
  // idle-fast-forward catch-up so counters and accounting read as if every tick ran.
  void RunFor(Duration d);

  // --- Introspection for tests and experiments ---
  // Machine-wide totals (sums over cores)...
  int64_t dispatches() const;
  int64_t context_switches() const;
  int64_t migrations() const { return migrations_; }
  // ...and per-core views. ticks() is per-core because cores tick in lockstep; core
  // 0's count is the machine's tick count.
  int64_t dispatches_on(CpuId core) const { return CoreAt(core).dispatches; }
  int64_t context_switches_on(CpuId core) const { return CoreAt(core).context_switches; }
  int64_t ticks() const { return CoreAt(0).ticks; }
  Cycles cycles_per_tick() const { return cycles_per_tick_; }
  // Observability for the fast-forward machinery: how many dispatch-clock
  // suspensions have begun, and whether one is in effect right now.
  int64_t idle_suspensions() const { return idle_suspensions_; }
  bool idle_suspended() const { return suspended_; }
  // Tick rounds that actually ran the per-core dispatch loops across host threads
  // (0 when host_threads == 1 or no round ever passed the independence gate).
  int64_t parallel_rounds() const { return parallel_rounds_; }
  // The subset of parallel_rounds() that staked a work model's queue plan against
  // pre-claimed BoundedBuffer stakes (all-hog rounds do not count). The vacuity
  // signal for the queue-round equivalence passes: a pipeline/farm config that
  // claims to exercise the parallel path must show this > 0.
  int64_t mailbox_rounds() const { return mailbox_rounds_; }
  // Host threads the machine will use (config.host_threads clamped to the core
  // count; 1 when no ParallelEngine was created).
  int host_threads() const;

 private:
  struct SleepEntry {
    TimePoint wake_at;
    uint64_t generation;
    ThreadId thread;
  };

  // Column-path census helpers (require slabs_): does the census count `t` on
  // `core`; and `core`'s reserved ppt without `excluding`.
  bool CountedOn(CpuId core, const SimThread* t) const;
  // The run state of thread `id` (record `t`), from the state column when the slabs
  // are on: the wake paths test it without dragging the cold record into cache.
  ThreadState StateOf(ThreadId id, const SimThread* t) const {
    return slabs_ != nullptr ? slabs_->state(id) : t->state();
  }
  int64_t ReservedPptOn(CpuId core, const SimThread* excluding) const;

  // Sleep-generation bookkeeping: which incarnation of "this thread is asleep" the
  // heap entries refer to (0 = not asleep), in a dense ThreadId-indexed vector (the
  // timer path is hot at farm scale).
  uint64_t SleepGenOf(ThreadId id) const;
  void SetSleepGen(ThreadId id, uint64_t gen);
  void ClearSleepGen(ThreadId id);

  // Per-core dispatcher state: the run queue (scheduler) plus everything the
  // pre-SMP Machine kept as single members.
  struct Core {
    Scheduler* scheduler = nullptr;
    SimThread* last_ran = nullptr;
    Cycles stolen_backlog = 0;
    int64_t dispatches = 0;
    int64_t context_switches = 0;
    int64_t ticks = 0;
    EventId next_tick_event = kInvalidEventId;  // Pending Tick callback, if any.
    bool round_had_pick = false;  // Did this core dispatch anything this tick round?
  };

  Core& CoreAt(CpuId core) {
    RR_EXPECTS(core >= 0 && static_cast<size_t>(core) < cores_.size());
    return cores_[static_cast<size_t>(core)];
  }
  const Core& CoreAt(CpuId core) const {
    RR_EXPECTS(core >= 0 && static_cast<size_t>(core) < cores_.size());
    return cores_[static_cast<size_t>(core)];
  }

  void Tick(CpuId core);
  // Tick(core) minus the callback lookup: prologue (counters, core-0 timer service)
  // plus TickRest. The sequential engine's whole tick; the parallel engine's
  // fallback unit.
  void TickBody(CpuId core, TimePoint now);
  // Everything in a tick after the prologue: scheduler OnTick, RoundDispatch,
  // checker hook, and the re-arm / suspend decision.
  void TickRest(CpuId core, TimePoint now);
  // host_threads > 1: core 0's dispatch-clock callback. Pops the sibling cores'
  // same-timestamp tick events off the queue head and runs the whole round — in
  // parallel when the independence gate passes, else as the exact sequential
  // interleave.
  void RoundTick();
  // Backlog absorption + dispatch loop: the per-core body RunRound fans out, and the
  // middle of every sequential tick.
  void RoundDispatch(CpuId core, TimePoint now);
  // The dispatch clock callback for `core` under the current engine mode.
  EventQueue::Callback TickCallback(CpuId core);
  // The round gate — the precondition for running dispatch loops concurrently. Every
  // runnable thread must be a hog (WorkModel::RoundLocalCycles covers a full tick
  // from `now`) or plan its round's queue ops (WorkModel::PlanRoundQueueOps, budgeted
  // by Scheduler::RoundCycleBound) into a per-queue claim table; the round is
  // admitted iff, for every planned queue: no thread is blocked on it, at most one
  // thread pushes and one pops (so side-band FIFOs keep sequential order), the push
  // bounds fit the current headroom, and the pop bounds fit the current fill. Then
  // no full/empty edge is reachable in ANY interleaving — every op succeeds with its
  // full request in both engines, no wake can fire — so the round fans out with
  // bit-identical results. On success round_claims_/round_staged_ hold the table
  // (both empty for an all-hog round, an admission cached until the runnable set
  // changes); a failure is cached at per-queue epoch granularity (plan_fail_*):
  // re-evaluation waits for a runnable-set change or a consulted queue's
  // change_epoch to move, keeping steady-state gate work O(runnable).
  bool RoundPlanIsFeasible(TimePoint now);
  // Remembers why the mailbox gate failed: the consulted queues' change epochs
  // (empty = runnable-set-keyed only), so the fail-fast path above stays sound.
  void RecordPlanFailure();
  // Invalidates the cached gate verdicts. Called on every runnable-set change made
  // outside a parallel round; in-round transitions can only shrink the runnable set
  // (gated work never wakes anyone), which cannot falsify an all-hog admission.
  void InvalidateRoundGate() { ++gate_epoch_; }
  // Records a trace event from the dispatch path: directly when sequential, into
  // `core`'s lane when inside a parallel round (merged in core order at the barrier).
  void Emit(CpuId core, TimePoint t, TraceKind kind, ThreadId thread, int64_t arg0 = 0,
            int64_t arg1 = 0);
  void WakeExpiredSleepers(TimePoint now);
  // Files a sleeper into the timing wheel bucket of its wake tick.
  void PushSleeper(const SleepEntry& entry);
  // Runs work for up to `cycles_left` on `core`; one iteration of the intra-tick
  // dispatch loop.
  void DispatchLoop(Core& core, CpuId core_id, TimePoint now, Cycles cycles_left);
  void ApplyRunResult(Core& core, CpuId core_id, SimThread* thread, const RunResult& result,
                      TimePoint now);
  // One pass of the over-subscription rebalancer; reschedules itself.
  void Rebalance();

  // --- Idle fast-forward ---
  // True when the whole machine is provably idle going forward: no runnable thread
  // on any core and no overhead backlog to absorb.
  bool ShouldSuspend() const;
  // Stops the per-tick clocks (cancelling already-scheduled ticks) and arms the
  // sleeper-horizon event. Called at the end of the last core's tick in a round.
  void Suspend();
  // Arms (or re-arms) the horizon event at the tick that will service the earliest
  // live sleeper; no event if the sleep list is empty.
  void ArmHorizon();
  // Replays the accounting of one elided idle tick on `core_id`, exactly as the
  // skipped Tick would have charged it.
  void AccountIdleTick(CpuId core_id);
  // Replays all elided ticks at grid points in (accounted_through_, upto) — or
  // (..., upto] with `inclusive` — updating counters, charges, and scheduler state.
  void AccountSkippedTicks(TimePoint upto, bool inclusive);
  // Settles catch-up strictly before `now` and restarts the per-core tick clocks at
  // the next grid point. No-op unless suspended.
  void ResumeTicking();

  Simulator& sim_;
  ThreadRegistry& registry_;
  MachineConfig config_;
  std::vector<Core> cores_;
  Cycles cycles_per_tick_ = 0;
  // schedule()'s charge per dispatch at this dispatch rate (every core's cost
  // model is the same); 0 when overheads are not charged.
  Cycles dispatch_cost_ = 0;

  // The registry's slabs (null when disabled). Slot == ThreadId and slot order is
  // creation order, so the machine-wide sweeps (census, rebalancer victim scan,
  // idle-suspension check) read columns in the order the registry_.All() sweeps
  // walk, preserving even floating-point summation order.
  const ThreadSlabs* slabs_ = nullptr;

  // Sleepers live in a hashed timing wheel (Varghese & Lauck, SOSP 1987): one bucket
  // per tick modulo kSleepWheelTicks, an O(1) push_back per sleep. A drain takes only
  // entries with wake_at <= now, so a sleep longer than the wheel waits in its bucket
  // for its lap. WakeExpiredSleepers sorts the due batch by (wake_at, generation) —
  // the order a single heap pops in — so the trace is bit-identical to a heap's.
  static constexpr int64_t kSleepWheelTicks = 128;
  static constexpr int64_t kNoTick = INT64_MIN;
  std::vector<std::vector<SleepEntry>> sleep_wheel_;  // Ring of kSleepWheelTicks buckets.
  int64_t sleep_wheel_cursor_ = kNoTick;  // First undrained tick index.
  int64_t sleep_wheel_count_ = 0;         // Entries currently in the wheel.
  std::vector<SleepEntry> wake_batch_;    // WakeExpiredSleepers's reused scratch.
  std::vector<uint64_t> sleep_gen_dense_;  // Indexed by ThreadId.
  uint64_t next_generation_ = 1;

  // Fast-forward state: the last tick grid point whose effects (real or replayed)
  // are reflected in counters and accounting, and the armed sleeper-horizon event.
  TimePoint accounted_through_ = TimePoint::Origin();
  bool suspended_ = false;
  EventId horizon_event_ = kInvalidEventId;
  int64_t idle_suspensions_ = 0;
  int64_t epoch_fences_ = 0;

  int64_t migrations_ = 0;
  bool started_ = false;
  MachineChecker* checker_ = nullptr;
  MigrationHook migration_hook_;

  // --- Parallel engine (host_threads > 1) ---
  // Per-core mailbox for one round's cross-core-visible effects: trace records in
  // emission order, and throttle-sleeps whose wheel insertion (and generation
  // assignment) is deferred to the barrier. Cleared at round start; drained at the
  // barrier in ascending core order — the fixed drain order that makes the merged
  // stream equal the sequential engine's.
  struct Lane {
    struct StagedSleep {
      SimThread* thread;
      TimePoint wake_at;
    };
    std::vector<TraceEvent> events;
    std::vector<StagedSleep> sleeps;
  };

  std::unique_ptr<ParallelEngine> engine_;  // Null when host_threads == 1.
  std::vector<Lane> lanes_;                 // One per core; empty when engine_ is null.
  bool in_round_ = false;  // Dispatch loops currently fanned out across host threads.
  int64_t parallel_rounds_ = 0;
  // Runnable-set epoch: bumped by every change outside a round (wake, sleep, block,
  // exit, attach, migrate). An all-hog admission holds while it is unchanged.
  uint64_t gate_epoch_ = 1;
  uint64_t hogs_admitted_epoch_ = 0;

  // --- Mailbox (staked-queue) rounds ---
  // One planned queue's aggregated claim for the current round: the stake structs
  // the buffer's mid-round ops write into, and the single planned endpoint threads.
  struct QueueClaim {
    BoundedBuffer* queue = nullptr;
    BoundedBuffer::RoundStake push;
    BoundedBuffer::RoundStake pop;
    ThreadId pusher = kInvalidThreadId;
    ThreadId popper = kInvalidThreadId;
  };
  std::vector<QueueClaim> round_claims_;  // This round's queue table (coordinator-owned).
  // Planned models with their owning core, sorted into ascending-core order before
  // the FlushRoundEffects barrier — the core-major effect order the sequential
  // engine produces.
  std::vector<std::pair<CpuId, WorkModel*>> round_staged_;
  std::vector<RoundQueueOp> plan_ops_;  // Reused per-thread plan scratch.
  uint64_t plan_stamp_ = 0;             // Queue-table dedup stamp (BoundedBuffer::PlanMark).
  int64_t mailbox_rounds_ = 0;
  // Mailbox-gate failure cache (per-queue epoch granularity): the failure holds
  // while the runnable set and every consulted queue's change epoch are unchanged.
  bool plan_fail_valid_ = false;
  uint64_t plan_fail_gate_epoch_ = 0;
  std::vector<std::pair<BoundedBuffer*, uint64_t>> plan_fail_queues_;
};

}  // namespace realrate

#endif  // REALRATE_SCHED_MACHINE_H_
