// FeedbackAllocator: the paper's adaptive controller (§3.3). Runs periodically
// (user-level, 100 Hz in the prototype), samples each controlled thread's progress,
// derives a desired proportion through the Figure 3/Figure 4 control laws, resolves
// overload by admission control and (weighted fair-share) squishing, and actuates the
// reservation scheduler.
//
// Control plane (see docs/ARCHITECTURE.md, "The control plane"): RunOnce executes an
// explicit four-stage pipeline — Sample → Estimate → Resolve → Actuate — backed by
// incrementally maintained state:
//   - a per-core BudgetLedger (core/budget_ledger.h) keeps fixed-reservation sums
//     registered, so admission, squish head-room, and FixedReservedSum* are O(1)
//     reads instead of per-call sweeps over every controlled thread;
//   - a dirty-set sampler (core/control_pipeline.h) skips the pressure and
//     saturation sweeps for real-rate threads whose queue linkages kept their change
//     epochs since the previous tick;
//   - quality-exception evidence is a SaturationWindow with an O(1) running count
//     instead of a 10×patience-entry rescan per thread per tick;
//   - thread lookup is an id→slot index (O(1) Find/Remove, mirroring
//     SimThread::sched_slot in the dispatch layer), and actuation batches per-core
//     through the owning RbsScheduler — one ApplyReservations call per core per
//     tick (per-update index maintenance unchanged);
//   - per-thread hot fields (exit state, cpu, importance) are read from the
//     registry's SoA slab columns (task/thread_slabs.h) instead of chasing each
//     SimThread pointer; the controller never writes a column directly.
// Nothing is maintained for the cluster router: its head-room signal is
// BudgetLedger::SparePpt against overload_threshold(), computed at the epoch fence.
// The pipeline is the only controller. The invariant oracle (harness/invariants.h)
// re-derives its incremental state from scratch after every iteration of a fuzzed
// run — per-core fixed sums against the ledger, each real-rate thread's pressure
// against its queues, the slab columns against the object state — and the golden
// trace pins recorded before the pipeline existed hold it to the original sweep's
// schedule.
//
// Multi-CPU: proportions are allocated per core. Admission control and the
// squish/overload resolution each operate within the 100% (well, overload threshold)
// budget of one core, exactly as the paper's uniprocessor controller does — the
// Machine's placement/rebalance policy decides which core a thread's proportion is
// drawn from, and a real-time reservation that would be rejected on its own core is
// steered to the core with the most unreserved fixed capacity before admission. On a
// 1-core machine all of this degenerates to the paper's controller, bit for bit.
//
// Ownership: borrows the Machine, the core-0 RbsScheduler (its actuation interface —
// reservation state lives on the threads, so one instance can actuate any thread),
// and the QueueRegistry; all must outlive it. Owns the per-thread estimator state and
// the budget ledger, and holds the Machine's migration hook for its own lifetime.
//
// Units: proportions are dimensionless fractions of ONE core in [0, 1] (Proportion is
// parts-per-thousand); periods and the controller interval are virtual-time
// Durations; sampled usage is in simulated Cycles.
//
// Thread-safety: none — runs inside single-threaded simulator events like every
// layer above the Simulator.
#ifndef REALRATE_CORE_CONTROLLER_H_
#define REALRATE_CORE_CONTROLLER_H_

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/budget_ledger.h"
#include "core/control_pipeline.h"
#include "core/overload.h"
#include "core/period_estimator.h"
#include "core/proportion_estimator.h"
#include "core/quality.h"
#include "queue/registry.h"
#include "sched/machine.h"
#include "sched/rbs.h"
#include "util/ring_buffer.h"
#include "util/types.h"

namespace realrate {

struct ControllerConfig {
  // Controller execution period: "100 Hz in our prototype".
  Duration interval = Duration::Millis(10);
  ProportionEstimatorConfig estimator;
  // The paper's experiments all disable period estimation; so do we by default.
  bool enable_period_estimation = false;
  // Whether the controller's own computation is charged to the CPU (Fig. 5 overhead).
  bool charge_overhead = true;
};

class FeedbackAllocator {
 public:
  // Default period for aperiodic and miscellaneous threads: "our prototype uses a
  // default value of 30 milliseconds."
  static constexpr Duration kDefaultPeriod = Duration::Millis(30);
  // Constant progress-pressure applied to miscellaneous threads: "the controller
  // approximates the thread's progress with a positive constant." Sized so an
  // unopposed miscellaneous job ramps to the ceiling within a couple of seconds.
  static constexpr double kMiscPressure = 0.1;
  // Quality exception: fires when at least kQualityPatience of the last
  // 10 * kQualityPatience controller intervals showed saturation evidence (queue
  // pinned beyond kQualityFillExtreme, or saturation hits — failed pushes/pops —
  // since the previous check). A windowed count rather than a consecutive streak:
  // bursty consumers dip below the extreme between drain bursts even while data is
  // being dropped at a steady rate.
  static constexpr int kQualityPatience = 25;
  static constexpr double kQualityFillExtreme = 0.95;
  // Deadline-miss feedback (paper footnote 3): each miss notification shrinks the
  // admission threshold (from kOverloadThreshold, core/budget_ledger.h) by
  // kAdmissionBackoff, increasing spare capacity, down to kMinOverloadThreshold.
  static constexpr double kAdmissionBackoff = 0.002;
  static constexpr double kMinOverloadThreshold = 0.5;
  // Interactive heuristic: period small enough for human perception, and enough
  // allocation headroom for one measured burst per period.
  static constexpr Duration kInteractivePeriod = Duration::Millis(10);
  static constexpr double kInteractiveHeadroom = 1.5;

  FeedbackAllocator(Machine& machine, RbsScheduler& rbs, QueueRegistry& queues,
                    const ControllerConfig& config = ControllerConfig{});
  ~FeedbackAllocator();  // Releases the Machine's migration hook.

  // Schedules the periodic controller invocation. Call once.
  void Start();

  // Wires deadline-miss feedback from an additional per-core RbsScheduler to this
  // controller (the constructor wires the primary one) and registers it as the next
  // core's actuation target. System calls this for cores 1..N-1, in core order, when
  // building an SMP machine — actuation must go through the scheduler that owns the
  // thread's run queue, because the indexed dispatch structures (sched/rbs.h) are
  // maintained by the owning instance's hooks.
  void WireScheduler(RbsScheduler& rbs);

  // --- Registration: the Figure 2 taxonomy ---
  // Real-time: proportion and period specified. Subject to admission control; returns
  // false (and leaves the thread unmanaged) when rejected.
  bool AddRealTime(SimThread* thread, Proportion proportion, Duration period);
  // Aperiodic real-time: proportion specified, controller assigns the default period.
  bool AddAperiodicRealTime(SimThread* thread, Proportion proportion);
  // Real-rate: progress metric(s) must already be registered in the queue registry.
  void AddRealRate(SimThread* thread);
  // Miscellaneous: no information; constant-pressure heuristic.
  void AddMiscellaneous(SimThread* thread);
  // Interactive (§3.2): "the scheduler only needs to know that the job is interactive"
  // — a small period for human-perception latency, proportion estimated "by measuring
  // the amount of time they typically run before blocking".
  void AddInteractive(SimThread* thread);
  // O(1) via the id→slot index (last-slot swap); no-op for unmanaged threads.
  // The swap reorders the controlled set, and enumeration order is
  // schedule-visible through the squish arithmetic — so an explicit mid-run
  // Remove may perturb later grants relative to an order-preserving erase. That
  // is deliberate (removal is an API event, deterministically replayed); only the
  // implicit exited-thread drop stays order-preserving, because threads exit
  // without any API call to anchor the perturbation to.
  void Remove(SimThread* thread);

  void SetQualityExceptionFn(QualityExceptionFn fn) { quality_fn_ = std::move(fn); }

  // Invoked at the end of every controller iteration, after overload resolution and
  // actuation — the invariant oracle's controller-tick observation point. The hook
  // must be a read-only observer (see MachineChecker).
  using PostRunHook = std::function<void(TimePoint)>;
  void SetPostRunHook(PostRunHook hook) { post_run_hook_ = std::move(hook); }

  // One controller iteration: Sample → Estimate → Resolve → Actuate. Public so the
  // wall-clock overhead bench can drive it directly; normal use goes through Start().
  void RunOnce(TimePoint now);

  // --- Introspection (tests, experiment harness) ---
  double DesiredFraction(ThreadId id) const;
  double GrantedFraction(ThreadId id) const;
  double LastPressure(ThreadId id) const;
  Duration PeriodOf(ThreadId id) const;
  std::optional<ThreadClass> ClassOf(ThreadId id) const;
  // The post-backoff admission threshold (the cluster's SpareSignal reads the
  // ledger's head-room against it).
  double overload_threshold() const { return overload_threshold_; }
  // Fixed (real-time / aperiodic real-time) reservations: machine-wide sum, and the
  // sum drawn from one core's budget. O(1), served from the budget ledger.
  double FixedReservedSum() const;
  double FixedReservedSumOnCore(CpuId core) const;
  const BudgetLedger& ledger() const { return ledger_; }
  int64_t invocations() const { return invocations_; }
  int64_t quality_exceptions() const { return quality_exceptions_; }
  int64_t squish_events() const { return squish_events_; }
  size_t controlled_count() const { return controlled_.size(); }
  // Dirty-set sampler observability: real-rate sample/saturation sweeps skipped
  // (clean) vs executed (dirty).
  int64_t clean_samples() const { return clean_samples_; }
  int64_t dirty_samples() const { return dirty_samples_; }

  const ControllerConfig& config() const { return config_; }

 private:
  struct Controlled {
    // Hot scalars first: the Sample/Estimate/Resolve sweeps stream these every tick,
    // so they pack into the leading cachelines ahead of the cold estimator state.
    SimThread* thread = nullptr;
    ThreadClass cls = ThreadClass::kMiscellaneous;
    // Per-tick scratch: written by the Sample stage, consumed by Estimate/Actuate.
    bool tick_clean = false;
    // thread->id(), cached at registration: its slot in the registry's hot-field
    // slabs (task/thread_slabs.h), so the column reads skip the thread record.
    ThreadId id = kInvalidThreadId;
    // Real-time / aperiodic real-time reservation, in exact integer ppt (the
    // ledger's currency). The fraction view is derived, never stored separately.
    int32_t fixed_ppt = 0;
    double FixedFraction() const { return static_cast<double>(fixed_ppt) / 1000.0; }
    Duration period;
    double desired = 0.0;
    double granted = 0.0;
    double last_pressure = 0.0;
    double tick_used_fraction = 0.0;
    // --- Cold per-thread state (touched off the per-tick hot path) ---
    std::unique_ptr<ProportionEstimator> estimator;   // Real-rate / miscellaneous only.
    std::unique_ptr<PeriodEstimator> period_estimator;  // Real-rate only.
    // Sliding window of per-interval saturation evidence (O(1) running count).
    std::unique_ptr<SaturationWindow> quality_window;
    // Saturation counters seen at the previous quality check, per linkage.
    std::vector<int64_t> last_full_hits;
    std::vector<int64_t> last_empty_hits;
    // Dirty-set sampler state: linkage snapshot, cached pressure, cached fill-based
    // saturation verdict (real-rate only).
    LinkageCache linkage_cache;
    // Fill samples for period estimation, sized to cover one period of intervals.
    std::unique_ptr<RingBuffer<double>> fill_window;
    TimePoint last_period_mark;
  };

  static bool IsFixedClass(ThreadClass cls) {
    return cls == ThreadClass::kRealTime || cls == ThreadClass::kAperiodicRealTime;
  }
  static bool IsAdaptiveClass(ThreadClass cls) {
    return cls == ThreadClass::kRealRate || cls == ThreadClass::kMiscellaneous ||
           cls == ThreadClass::kInteractive;
  }

  void ScheduleNext();
  // The scheduler owning `thread`'s run queue (by core affinity). Every core of the
  // machine must have been wired (the constructor wires core 0, WireScheduler the
  // rest); an unwired core fails here rather than later inside SetReservation.
  RbsScheduler& SchedulerFor(const SimThread* thread);
  RbsScheduler& SchedulerForCore(CpuId core);
  // The paper's admission test against the thread's core's fixed budget; if that
  // core would reject but the least fixed-loaded core would accept (SMP only), the
  // thread migrates there first.
  bool PlaceAndAdmit(SimThread* thread, double request);
  Controlled* Find(ThreadId id);
  const Controlled* Find(ThreadId id) const;
  // Registration/removal through the id→slot index and the budget ledger.
  void RegisterControlled(Controlled&& c);
  void RemoveSlot(size_t slot);
  void RebuildSlotIndex();
  // Drops threads that exited since the last tick (order-preserving, like the
  // original sweep — removal order is schedule-visible through the squish).
  void DropExited();
  void EnsureQualityWindow(Controlled& c);
  // Slab-column reads for the per-tick sweeps: with the registry's SoA slabs on,
  // every controlled thread is read through its column (one contiguous stream across
  // the controlled set) instead of a SimThread pointer chase; a slab-less registry
  // reads the objects. Both sides are write-through mirrors of the same state, so
  // the values are identical by construction (and the invariant oracle checks it
  // every tick).
  bool ExitedOf(const Controlled& c) const;
  CpuId CpuOf(const Controlled& c) const;
  double ImportanceOf(const Controlled& c) const;

  // --- The staged pipeline ---
  // Sample: drain usage windows and refresh progress pressure, skipping linkage
  // sweeps for threads whose queues kept their change epochs (the dirty set).
  void SampleStage();
  // Estimate: the Figure 3/4 control laws per thread, on the sampled inputs.
  void EstimateStage(double dt, TimePoint now);
  // Resolve: bucket adaptive desires per core (one pass), read each core's fixed
  // budget from the ledger, squish.
  void ResolveStage();
  // Actuate: apply each core's resolved grants as one batch through the owning
  // scheduler, then run the post-grant quality audit and charge overhead.
  void ActuateStage(TimePoint now);
  void QualityAudit(Controlled& c, TimePoint now);
  // Full linkage sweep with saturation-hit deltas (dirty ticks); refreshes the
  // cached fill-based verdict and returns this tick's saturated queue, if any.
  BoundedBuffer* GatherSaturation(Controlled& c);

  void ApplyPeriodEstimation(Controlled& c, TimePoint now);
  // Per-thread actuation (registration and period-estimation re-actuations): a
  // one-update batch.
  void Actuate(Controlled& c, double fraction, TimePoint now);
  // Grants `fraction` to `c` and queues its reservation on batch_, unless the thread
  // already holds it (re-actuating would perturb its budget).
  void StageGrant(Controlled& c, double fraction);
  // Applies batch_ through `scheduler` — every update first — then records each
  // change and wakes the sleepers it funded.
  void ApplyBatch(RbsScheduler& scheduler, TimePoint now);

  void OnDeadlineMiss(SimThread* thread, Cycles shortfall, TimePoint now);

  Machine& machine_;
  RbsScheduler& rbs_;
  // Actuation targets in core order (schedulers_[core] serves core `core`): the
  // constructor registers `rbs_` as core 0, WireScheduler appends the rest.
  std::vector<RbsScheduler*> schedulers_;
  QueueRegistry& queues_;
  ControllerConfig config_;
  double overload_threshold_;
  std::vector<Controlled> controlled_;
  // id→slot index into controlled_ (the dispatch layer's sched_slot idiom): O(1)
  // Find, O(1) Remove by last-slot swap.
  std::unordered_map<ThreadId, size_t> slot_of_;
  BudgetLedger ledger_;
  // The registry's hot-field slabs (null when the registry runs slab-less); the
  // source the column helpers above read. Read-only: the controller writes thread
  // state through the SimThread setters, which mirror into the columns.
  const ThreadSlabs* slabs_ = nullptr;
  // Per-core scratch reused across ticks by Resolve/Actuate.
  std::vector<std::vector<SquishRequest>> core_requests_;
  std::vector<std::vector<size_t>> core_slots_;
  std::vector<std::vector<double>> core_grants_;
  std::vector<ReservationUpdate> batch_;
  QualityExceptionFn quality_fn_;
  PostRunHook post_run_hook_;
  int64_t invocations_ = 0;
  int64_t quality_exceptions_ = 0;
  int64_t squish_events_ = 0;
  int64_t clean_samples_ = 0;
  int64_t dirty_samples_ = 0;
  bool started_ = false;
};

}  // namespace realrate

#endif  // REALRATE_CORE_CONTROLLER_H_
