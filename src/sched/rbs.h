// RbsScheduler: the paper's reservation-based proportion/period scheduler (§3.1).
// Rate-monotonic ordering implemented through a goodness function, per-period cycle
// budgets, and sleep-until-next-period once a thread has used its allocation. Threads
// without a reservation fall back to round-robin behind all reserved threads, mirroring
// "our policy calculates goodness to ensure that threads it controls have higher
// goodness than jobs under other policies, and that jobs with shorter periods have
// higher goodness values."
//
// Dispatch hot path (see docs/ARCHITECTURE.md, "The dispatch hot path"): one
// PickNext, which finds the best reserved thread either by an O(n) scan or from
// indexed run queues, chosen by run-queue occupancy.
//   - The run queue is flat: every per-thread datum lives in arrays indexed by the
//     thread's position, which is its admission order (AddThread appends,
//     RemoveThread erases and renumbers). SimThread::sched_slot holds the position.
//     The hooks keep each position's flags (runnable, reserved, eligible) and pick
//     key current in every mode, so neither pick path reads a thread record.
//   - Reserved threads with remaining budget are grouped by pick key: -rank in
//     rate-monotonic mode, the period deadline in EDF mode. Each key owns a bitmap
//     over run-queue positions, and only the keys with a set bit sit in a small
//     ordered vector. The pick is the best key's lowest set bit — exactly the scan's
//     tie order, which resolves equal keys by position. Every eligibility change is
//     one bit flip; a key entering or leaving the vector costs an O(log k) search and
//     an O(k) move over the k live keys (about ten in a dense pipeline farm). This is
//     the priority-bitmap run queue of Linux's O(1) scheduler, keyed by RM rank.
//   - Period replenishment is one OnTick compare loop over a position-indexed
//     deadline array, in admission order, in every mode; the hooks that move a
//     thread's period keep it current.
//   - Best-effort (and, in work-conserving mode, budget-exhausted) threads are
//     summarized by a secondary occupancy index — runnable counts that let PickNext
//     skip the round-robin fallback scan entirely in the common all-blocked case; the
//     scan itself stays because its cursor semantics are positional.
// Occupancy switch: the bitmaps' maintenance is pure overhead at a handful of threads
// per core, where a scan of the flags fits in a few cachelines. The scheduler
// therefore scans while fewer than kIndexOnThreads threads are enqueued and switches
// the index on (building it from the flags once) when the run queue reaches that
// size, with 2x hysteresis on the way down. Both sides pick the same thread, so
// switching is trace-invariant. The invariant oracle (harness/invariants.h)
// re-derives the best reserved thread from the thread records at every pick of a
// fuzzed run and checks the dispatcher against it.
#ifndef REALRATE_SCHED_RBS_H_
#define REALRATE_SCHED_RBS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sched/scheduler.h"
#include "sim/cpu.h"
#include "task/thread.h"

namespace realrate {

// The rate-monotonic period rank: periods-per-hour, so any realistic period (>= 1 ms)
// maps to a positive, strictly rate-ordered value. Shared by RbsScheduler::Goodness,
// the pick key, and the invariant oracle, so no two can disagree on ordering.
inline int64_t PeriodRank(Duration period) { return Duration::Seconds(3600) / period; }

// Dispatch ordering among reserved threads with remaining budget. The paper implements
// rate-monotonic ordering via goodness but notes any reservation mechanism would do
// ("we could equally well have used other RBS mechanisms such as SMaRT, Rialto, or
// BERT"); EDF is provided as the classic alternative — it schedules feasible task sets
// up to 100% utilization where RMS is only guaranteed to the Liu-Layland bound.
enum class DispatchOrder : uint8_t {
  kRateMonotonic,
  kEarliestDeadlineFirst,
};

struct RbsConfig {
  // If true, threads with exhausted budgets may still run when the CPU would otherwise
  // idle (background mode). The paper's prototype is non-work-conserving: exhausted
  // threads sleep until their next period. Default matches the paper.
  bool work_conserving = false;
  DispatchOrder order = DispatchOrder::kRateMonotonic;
};

// One element of a per-core actuation batch (ApplyReservations): the reservation a
// controller tick resolved for `thread`.
struct ReservationUpdate {
  SimThread* thread = nullptr;
  Proportion proportion = Proportion::Zero();
  Duration period = Duration::Zero();
};

class RbsScheduler : public Scheduler {
 public:
  RbsScheduler(const Cpu& cpu, const RbsConfig& config = RbsConfig{});
  ~RbsScheduler() override;  // Clears the sched_slot cache of still-enqueued threads.

  const char* name() const override { return "rbs"; }

  void AddThread(SimThread* thread) override;
  void RemoveThread(SimThread* thread) override;
  void OnTick(TimePoint now) override;
  void OnTicksSkipped(int64_t count, TimePoint now) override;
  SimThread* PickNext(TimePoint now) override;
  Cycles MaxGrant(SimThread* thread, Cycles tick_remaining) override;
  Cycles RoundCycleBound(const SimThread* thread, Cycles tick_cycles) const override;
  void OnRan(SimThread* thread, Cycles used, TimePoint now) override;
  std::optional<TimePoint> ThrottleUntil(SimThread* thread, TimePoint now) override;
  void OnWake(SimThread* thread, TimePoint now) override;
  void OnBlock(SimThread* thread, TimePoint now) override;

  // Actuation entry point used by the controller: sets proportion/period and restarts
  // the thread's period from `now` with a fresh budget. "Very low overhead to change
  // proportion and period" — O(1) (plus the pick index's key move).
  void SetReservation(SimThread* thread, Proportion proportion, Duration period, TimePoint now);

  // Batched actuation surface for the controller's Actuate stage: applies each
  // update exactly as SetReservation would, in order — one scheduler call per core
  // per controller tick instead of one per changed thread. Per-update index
  // maintenance inside SetReservation is unchanged; the batch is the
  // call-granularity surface future deferred maintenance would hang off.
  // Every thread in the batch must be actuatable by this instance (enqueued here,
  // or enqueued nowhere — the SetReservation contract).
  void ApplyReservations(const std::vector<ReservationUpdate>& batch, TimePoint now);

  // The goodness function, exposed for tests. Higher runs first. Zero means "do not
  // run now".
  int64_t Goodness(const SimThread* thread) const;

  // Full budget (cycles) for one period of `thread`'s current reservation.
  Cycles PeriodBudget(const SimThread* thread) const;

  // Sum of reserved proportions over all scheduled threads (overload detection).
  Proportion TotalReserved() const;

  // Invoked when a reserved thread ends a period short of its budget while runnable.
  using DeadlineMissFn = std::function<void(SimThread*, Cycles shortfall, TimePoint)>;
  void SetDeadlineMissFn(DeadlineMissFn fn) { miss_fn_ = std::move(fn); }

  const RbsConfig& config() const { return config_; }
  // Enqueued threads in admission order — the order that breaks pick ties.
  const std::vector<SimThread*>& threads() const { return threads_; }
  // Is the indexed hot path being maintained right now? Tracks the occupancy
  // switch (see the header comment).
  bool indexing_active() const { return indexing_on_; }

 private:
  // Per-position bookkeeping, index-aligned with threads_ and kept by the hooks in
  // every mode; both pick paths read it.
  struct Node {
    int64_t key = 0;        // Pick key: -rank (RM) or period deadline (EDF); reserved only.
    int32_t key_slot = -1;  // Bitmap holding this position's bit; -1: not in the index.
    bool runnable = false;  // kRunnable (or kRunning, within one dispatch).
    bool reserved = false;  // Holds a non-zero reservation.
    bool eligible = false;  // Runnable, reserved, budget left: a pick candidate.
  };
  // A pick key with at least one eligible thread, and the bitmap slot of its members.
  struct LiveKey {
    int64_t key = 0;
    int32_t slot = 0;
  };
  // A bitmap slot's key and its number of set bits.
  struct KeySlot {
    int64_t key = 0;
    int32_t members = 0;
  };

  bool HasReservation(const SimThread* t) const {
    return t->policy() == SchedPolicy::kReservation && !t->proportion().IsZero();
  }
  // `thread`'s position here, or SimThread::kNoSchedSlot when it is enqueued elsewhere
  // or nowhere.
  size_t PositionOf(const SimThread* thread) const {
    const size_t pos = thread->sched_slot();
    return pos < threads_.size() && threads_[pos] == thread ? pos : SimThread::kNoSchedSlot;
  }
  void Replenish(size_t pos, TimePoint now);
  // Re-reads the thread's deadline and pick key after its reservation or period phase
  // moved, then reindexes it. Runs in every mode: OnTick's sweep reads due_ns_.
  void Refresh(size_t pos);
  // Recomputes the position's flags, occupancy counts and pick-index membership from
  // the thread's current state. Idempotent; every mutation hook funnels through it.
  void Reindex(size_t pos);
  void ReindexThread(const SimThread* thread);  // No-op unless enqueued here.
  // The position's bit enters (Link) or leaves (Unlink) its key's bitmap; a key
  // enters or leaves live_keys_ with its first or last member.
  void Link(size_t pos);
  void Unlink(size_t pos);
  // live_keys_ order (descending key), for lower_bound: a key's entry or its slot.
  static bool KeyAfter(const LiveKey& live, int64_t key) { return live.key > key; }
  uint64_t* SlotBits(int32_t slot) {
    return bits_.data() + static_cast<size_t>(slot) * words_;
  }
  // PickNext's parts: the best reserved thread by scan (index off) or from the index
  // (index on), both side-effect-free, then the shared cursor-mutating fallback.
  SimThread* PickReservedScan();
  SimThread* PickReservedIndexed();
  SimThread* PickFallbackRoundRobin();
  // Occupancy-switch transitions. Activation builds the pick index from the flags;
  // deactivation tears it down.
  // Neither changes any thread's state, so the schedule is unaffected.
  void ActivateIndexing();
  void DeactivateIndexing();
  void MaybeSwitchIndexing();
  const Cpu& cpu_;
  RbsConfig config_;
  // The run queue in admission order, and everything kept per position.
  std::vector<SimThread*> threads_;
  // The deadline (period end, in nanos) of each reserved thread, kNeverDue for the
  // others: OnTick replenishes exactly the positions with due_ns_ <= now.
  std::vector<int64_t> due_ns_;
  std::vector<Node> nodes_;
  DeadlineMissFn miss_fn_;
  size_t rr_cursor_ = 0;  // Round-robin position among non-reserved threads.
  bool indexing_on_ = false;  // Maintain/use the indexed structures right now?
  // Occupancy switch: the index turns on at this many enqueued threads and off below
  // half of it. The benchmark's farms (2-4 threads/core) sit below it, its dense
  // pipelines (1024 threads/core) above it.
  static constexpr size_t kIndexOnThreads = 96;

  // --- Indexed hot-path state (maintained only while indexing_on_) ---
  // Keys with an eligible thread (runnable, reserved, budget > 0), sorted by
  // descending key, so the best key — the smallest — is back().
  std::vector<LiveKey> live_keys_;
  // Bitmap slots: slot s owns bits_[s * words_, (s + 1) * words_), bit p set iff
  // position p is eligible under key_slots_[s].key. Empty slots are all-zero and wait
  // on free_slots_ for reuse, so steady-state maintenance allocates nothing.
  std::vector<KeySlot> key_slots_;
  std::vector<int32_t> free_slots_;
  std::vector<uint64_t> bits_;
  size_t words_ = 0;  // Words per bitmap; words_ * 64 >= threads_.size().
  // Secondary occupancy index for the round-robin fallback: how many runnable
  // threads are non-reserved, and how many are reserved at all. When no thread is
  // eligible, every counted reserved thread is exhausted, which is what
  // work-conserving mode scans for.
  int64_t runnable_unreserved_ = 0;
  int64_t runnable_reserved_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_SCHED_RBS_H_
