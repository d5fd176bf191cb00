// BoundedBuffer: the canonical symbiotic interface of the paper. A byte-counted queue
// between a producer and a consumer that exposes exactly what the kernel-side monitor
// needs: fill level, size, and each endpoint's role. Models shared-memory queues, pipes
// and sockets uniformly (the controller never looks deeper than fill/size/role).
#ifndef REALRATE_QUEUE_BOUNDED_BUFFER_H_
#define REALRATE_QUEUE_BOUNDED_BUFFER_H_

#include <functional>
#include <string>
#include <vector>

#include "util/assert.h"
#include "util/types.h"

namespace realrate {

class BoundedBuffer {
 public:
  using WakeFn = std::function<void(ThreadId)>;

  // capacity_bytes must be positive: a zero-capacity queue has no well-defined fill
  // fraction (the controller's progress metric divides by capacity) and could never
  // carry data, so construction rejects it outright.
  BoundedBuffer(QueueId id, std::string name, int64_t capacity_bytes);

  QueueId id() const { return id_; }
  const std::string& name() const { return name_; }
  int64_t capacity() const { return capacity_; }
  int64_t fill() const { return fill_; }
  bool Empty() const { return fill_ == 0; }
  bool Full() const { return fill_ == capacity_; }

  // Fill level as a fraction in [0, 1].
  double FillFraction() const { return static_cast<double>(fill_) / static_cast<double>(capacity_); }

  // The paper's progress metric F = fill/size - 1/2, in [-1/2, +1/2] (Figure 3).
  double PressureMetric() const { return FillFraction() - 0.5; }

  // Installed by the machine so queue state changes can wake blocked threads.
  void SetWakeFn(WakeFn fn) { wake_fn_ = std::move(fn); }

  // Attempts to append `bytes` (0 < bytes <= capacity; an item that exceeds the whole
  // queue could never fit and would livelock a producer waiting for space, so it is a
  // contract violation). Returns false (and changes nothing) if it doesn't fit right
  // now — including the exactly-full case, where a push of precisely the remaining
  // space still succeeds. On success, wakes all waiting consumers.
  bool TryPush(int64_t bytes);
  // Attempts to remove up to `bytes`; returns the number removed (0 when empty).
  // On any removal, wakes all waiting producers.
  int64_t TryPop(int64_t bytes);
  // Removes exactly `bytes` or nothing (0 < bytes <= capacity — the mirror of the
  // TryPush contract: an exact request exceeding the whole queue could never be
  // satisfied and would livelock a consumer waiting for data). Returns whether it
  // removed.
  bool TryPopExact(int64_t bytes);

  // Registers the calling thread as waiting for space (producer) or data (consumer).
  // The machine marks the thread blocked; a later TryPush/TryPop wakes it.
  void WaitForSpace(ThreadId thread);
  void WaitForData(ThreadId thread);

  // Total bytes ever pushed/popped (progress counters for experiments).
  int64_t total_pushed() const { return total_pushed_; }
  int64_t total_popped() const { return total_popped_; }

  // Saturation evidence for the controller's quality-exception detector: number of
  // operations that found the queue too full (failed push) or too empty (pop that got
  // nothing / failed exact pop).
  int64_t full_hits() const { return full_hits_; }
  int64_t empty_hits() const { return empty_hits_; }

  // Change epoch: bumped by every TryPush/TryPop/TryPopExact (each mutates the fill
  // level or a saturation counter, so each changes what the controller could observe
  // here). The controller's dirty-set sampler skips its per-tick pressure and
  // saturation sweeps for threads whose linked queues all kept their epoch since the
  // previous tick.
  uint64_t change_epoch() const { return change_epoch_; }

  // --- Round reservation (the parallel engine's slot-reservation API) ---
  // One endpoint's pre-claimed slice of this queue for a single gated dispatch
  // round. The coordinator sizes `budget_bytes` from the owning thread's round queue
  // plan and installs the stake before forking; mid-round TryPush/TryPop/TryPopExact
  // against a staked endpoint touch ONLY the stake — no shared buffer state — so the
  // operating core stays lock-free and share-nothing. The gate has already proved
  // every staked op succeeds with its full request (no full/empty edge is reachable
  // in any interleaving), which is what makes the stake-local outcomes identical to
  // the sequential engine's.
  struct RoundStake {
    int64_t budget_bytes = 0;  // Upper bound claimed at round start.
    int64_t staged_bytes = 0;  // Bytes actually pushed/popped mid-round.
    int64_t staged_ops = 0;    // Operations performed (change-epoch bumps to replay).
  };

  // Installs the per-round stakes (either may be null: endpoint not planned).
  // Coordinator-only, outside the forked region; stake storage must not move while
  // installed. SettleRoundStakes applies the staged deltas — fill, totals, and the
  // change epoch — and clears the pointers.
  // The settled state is bit-identical to the sequential engine's end-of-round state.
  void InstallRoundStakes(RoundStake* push, RoundStake* pop);
  void SettleRoundStakes();
  bool HasRoundStakes() const { return round_push_ != nullptr || round_pop_ != nullptr; }

  const std::vector<ThreadId>& waiting_producers() const { return waiting_producers_; }
  const std::vector<ThreadId>& waiting_consumers() const { return waiting_consumers_; }

  // Coordinator-only scratch for the mailbox gate's queue-table construction: marks
  // this buffer as seen during evaluation `stamp` and remembers its table slot, so
  // deduplicating plan entries is O(1) per op with no hash map. Never touched by
  // worker threads; meaningless outside one gate evaluation.
  bool PlanMark(uint64_t stamp, int32_t slot) {
    if (plan_stamp_ == stamp) {
      return false;  // Already in this evaluation's table.
    }
    plan_stamp_ = stamp;
    plan_slot_ = slot;
    return true;
  }
  int32_t plan_slot() const { return plan_slot_; }

 private:
  friend class QueueRegistry;  // Sets registry_fill_ in CreateQueue.

  void WakeAll(std::vector<ThreadId>& waiters);
  // Plain (non-atomic) by design, unlike ThreadSlabs::runnable_count_, which must
  // take relaxed RMWs while a parallel round is in flight: fill_ is never written
  // during a staked round. The staked TryPush/TryPop fast paths touch only their
  // per-thread RoundStake (one writer each, by the gate's single-pusher/single-popper
  // rule), and SettleRoundStakes runs on the coordinator after the round barrier —
  // so every ApplyFillDelta call is in a single-threaded phase. The TSan leg
  // (web_farm_test, cluster_test, the host-threads-4 fuzz smoke) enforces this
  // mechanically.
  // It also keeps the owning registry's running fill total (see QueueRegistry) equal
  // to the sum of its buffers' fill(), under the same single-threaded rule.
  void ApplyFillDelta(int64_t delta) {
    fill_ += delta;
    if (registry_fill_ != nullptr) {
      *registry_fill_ += delta;
    }
  }

  const QueueId id_;
  const std::string name_;
  const int64_t capacity_;
  int64_t fill_ = 0;
  int64_t* registry_fill_ = nullptr;  // The owning registry's fill total; null if none.
  int64_t total_pushed_ = 0;
  int64_t total_popped_ = 0;
  int64_t full_hits_ = 0;
  int64_t empty_hits_ = 0;
  uint64_t change_epoch_ = 0;
  RoundStake* round_push_ = nullptr;  // Non-null only inside a staked parallel round.
  RoundStake* round_pop_ = nullptr;
  uint64_t plan_stamp_ = 0;  // Gate-evaluation scratch (see PlanMark).
  int32_t plan_slot_ = -1;
  WakeFn wake_fn_;
  std::vector<ThreadId> waiting_producers_;
  std::vector<ThreadId> waiting_consumers_;
};

}  // namespace realrate

#endif  // REALRATE_QUEUE_BOUNDED_BUFFER_H_
