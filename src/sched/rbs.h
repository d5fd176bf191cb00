// RbsScheduler: the paper's reservation-based proportion/period scheduler (§3.1).
// Rate-monotonic ordering implemented through a goodness function, per-period cycle
// budgets, and sleep-until-next-period once a thread has used its allocation. Threads
// without a reservation fall back to round-robin behind all reserved threads, mirroring
// "our policy calculates goodness to ensure that threads it controls have higher
// goodness than jobs under other policies, and that jobs with shorter periods have
// higher goodness values."
//
// Dispatch hot path (see docs/ARCHITECTURE.md, "The dispatch hot path"): one
// PickNext, which finds the best reserved thread either by an O(n) goodness scan or
// in O(log n) from indexed run queues, chosen by run-queue occupancy.
//   - Reserved threads with remaining budget live in a pick index keyed by
//     incrementally maintained period rank (rate-monotonic mode) or period deadline
//     (EDF mode), with the thread's admission sequence number as the tiebreaker —
//     exactly the tie order of the scan, which resolves equal goodness by position
//     in the (arrival-ordered) thread vector. The index is a vector-backed min-heap
//     with lazy deletion (generation-stamped entries), so the block/wake storm of a
//     dense farm costs O(1) per eligibility exit and an allocation-free O(log n)
//     push per entry, with no tree nodes to chase.
//   - Period replenishment is driven by a due-heap keyed by period end, so OnTick
//     touches only the threads whose period actually closed instead of all n.
//   - Best-effort (and, in work-conserving mode, budget-exhausted) threads are
//     summarized by a secondary occupancy index — runnable counts that let PickNext
//     skip the round-robin fallback scan entirely in the common all-blocked case; the
//     scan itself stays because its cursor semantics are positional.
// Occupancy switch: the index's maintenance (Reindex on every state/budget mutation,
// due-heap churn) is pure overhead at a handful of threads per core, where the scan
// fits in a few cachelines. The scheduler therefore scans while fewer than
// kIndexOnThreads threads are enqueued and switches the index on (rebuilding it from
// the thread vector, O(n log n) once) when the run queue reaches that size, with 2x
// hysteresis on the way down. Both sides pick the same thread, so switching is
// trace-invariant. The invariant oracle (harness/invariants.h) re-derives the best
// reserved thread at every pick of a fuzzed run and checks the dispatcher against it.
//
// When every enqueued thread is bound to hot-field slabs (task/thread_slabs.h), the
// goodness scan, the fallback scan, the per-tick replenish sweep, and TotalReserved
// read the slab columns instead of chasing SimThread* — same order, same ties, same
// result, a fraction of the cachelines.
#ifndef REALRATE_SCHED_RBS_H_
#define REALRATE_SCHED_RBS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.h"
#include "sim/cpu.h"
#include "task/thread_slabs.h"

namespace realrate {

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
  // proportion and period" — O(1) (plus O(log n) index maintenance).
  void SetReservation(SimThread* thread, Proportion proportion, Duration period, TimePoint now);

  // Batched actuation surface for the controller's Actuate stage: applies each
  // update exactly as SetReservation would, in order — one scheduler call per core
  // per controller tick instead of one per changed thread. Per-update index
  // maintenance inside SetReservation is unchanged (O(log n) each); the batch is
  // the call-granularity surface future deferred maintenance would hang off.
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
  // Per-thread bookkeeping owned by this scheduler (not the thread): the admission
  // sequence number that reproduces the scan's tie order, the pick-index
  // membership/key snapshot, and the replenish-heap generation stamp.
  struct Node {
    RbsScheduler* owner = nullptr;  // Guards the SimThread::sched_slot cache.
    uint64_t seq = 0;
    bool in_pick_index = false;
    int64_t pick_primary = 0;       // Key snapshot while in the pick index.
    uint64_t pick_gen = 0;          // Generation of the current pick-heap entry.
    int32_t pick_slot = ThreadSlabs::kNoSlot;  // Slab slot of that entry, if bound.
    bool counted_runnable = false;  // Contributes to the occupancy counts below.
    bool counted_reserved = false;  // Which count it contributes to.
    uint64_t replenish_gen = 0;     // Current generation; stale heap entries mismatch.
  };

  // Pick-index element. Ordering is (rank desc | deadline asc, seq asc): the heap
  // minimum is exactly the thread the scan would return. Entries are
  // lazily deleted — `gen` matches Node::pick_gen only while the entry is current;
  // eligibility changes just bump the node's generation (O(1)) and the dead entry
  // is discarded when it surfaces at the heap top.
  struct PickKey {
    int64_t primary = 0;  // -rm_rank, or the EDF deadline in nanos.
    uint64_t seq = 0;
    uint64_t gen = 0;     // Current iff == the owning Node's pick_gen.
    int32_t slot = ThreadSlabs::kNoSlot;  // Slab slot, for object-free stale checks.
    SimThread* thread = nullptr;
    bool operator>(const PickKey& other) const {
      if (primary != other.primary) {
        return primary > other.primary;
      }
      return seq > other.seq;
    }
  };

  // Replenish due-heap entry: period end of one reservation incarnation.
  struct DueEntry {
    TimePoint due;
    uint64_t seq = 0;
    uint64_t gen = 0;
    SimThread* thread = nullptr;
    bool operator>(const DueEntry& other) const {
      if (due != other.due) {
        return due > other.due;
      }
      return seq > other.seq;
    }
  };

  bool HasReservation(const SimThread* t) const {
    return t->policy() == SchedPolicy::kReservation && !t->proportion().IsZero();
  }
  void Replenish(SimThread* thread, TimePoint now);
  // Recomputes `thread`'s pick-index membership/key and occupancy counts from its
  // current state. Idempotent; every mutation hook funnels through it.
  void Reindex(SimThread* thread);
  Node* FindNode(SimThread* thread);
  // Pushes a fresh due-heap entry for `thread`'s current period (bumping the
  // generation so older entries die), or just invalidates when unreserved.
  void RearmReplenish(SimThread* thread, Node& node);
  // PickNext's parts: the best reserved thread by scan (index off) or from the index
  // (index on), both side-effect-free, then the shared cursor-mutating fallback.
  SimThread* PickReservedScan();
  SimThread* PickReservedIndexed();
  SimThread* PickFallbackRoundRobin();
  // Occupancy-switch transitions. Activation rebuilds the pick index, occupancy
  // counts, and due-heap from the thread vector; deactivation tears them down.
  // Neither changes any thread's state, so the schedule is unaffected.
  void ActivateIndexing();
  void DeactivateIndexing();
  void MaybeSwitchIndexing();
  // Rebuilds pick_index_ without its stale entries when they outnumber live ones
  // 4:1, so lazy deletion cannot grow the heap unboundedly. Amortized O(1) per
  // logical erase.
  void CompactPickIndex();
  // Is this heap entry the current one for its thread (vs lazily deleted)?
  bool PickEntryCurrent(const PickKey& key);
  // True when every enqueued thread is slab-bound, so the goodness scan, the
  // fallback scan, the replenish sweep, and TotalReserved can read columns.
  bool UseColumns() const { return slabs_ != nullptr && unbound_ == 0; }

  const Cpu& cpu_;
  RbsConfig config_;
  std::vector<SimThread*> threads_;
  // threads_[i]'s slab slot (ThreadSlabs::kNoSlot when unbound), kept index-aligned
  // with threads_ so column scans preserve scan order, ties, and the round-robin
  // cursor arithmetic.
  std::vector<int32_t> slots_;
  const ThreadSlabs* slabs_ = nullptr;  // The slab every bound thread belongs to.
  size_t unbound_ = 0;                  // Enqueued threads without a slab slot.
  DeadlineMissFn miss_fn_;
  size_t rr_cursor_ = 0;  // Round-robin position among non-reserved threads.
  bool indexing_on_ = false;  // Maintain/use the indexed structures right now?
  // Occupancy switch: the index turns on at this many enqueued threads and off below
  // half of it. The benchmark's farms (2-4 threads/core) sit below it, its dense
  // pipelines (1024 threads/core) above it.
  static constexpr size_t kIndexOnThreads = 96;

  // --- Indexed hot-path state ---
  std::unordered_map<SimThread*, Node> nodes_;
  // Eligible reserved threads (runnable, budget > 0): a vector-backed binary
  // min-heap with lazy deletion — allocation-free pushes, O(1) logical erase —
  // instead of a node-based ordered set, because the farm transitions threads
  // in and out of eligibility millions of times per second. `pick_live_` counts
  // the current (non-stale) entries; CompactPickIndex() bounds the garbage.
  std::vector<PickKey> pick_index_;
  int64_t pick_live_ = 0;
  // Current pick generation per slab slot (0 = not in the index): lets the heap's
  // stale-entry test read one dense word instead of chasing the (cold) thread
  // record's sched_slot on every pick. Unbound threads fall back to FindNode.
  std::vector<uint64_t> pick_gen_by_slot_;
  std::priority_queue<DueEntry, std::vector<DueEntry>, std::greater<DueEntry>> due_;
  std::vector<DueEntry> due_now_;  // OnTick's reused due-batch buffer.
  // Secondary occupancy index for the round-robin fallback: how many runnable
  // threads are non-reserved, and how many are reserved at all. Runnable reserved
  // threads with exhausted budgets = counted_reserved_runnable - |pick_index_|,
  // which is what work-conserving mode scans for.
  int64_t runnable_unreserved_ = 0;
  int64_t runnable_reserved_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t next_gen_ = 1;
};

}  // namespace realrate

#endif  // REALRATE_SCHED_RBS_H_
