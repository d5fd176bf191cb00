// Cache-conscious thread state: the hot fields the machine and the controller tick
// touch for *every* thread — run state, policy, core affinity, granted reservation,
// importance — mirrored out of the SimThread heap objects into structure-of-arrays
// slabs, plus the arena the thread records themselves are allocated from.
//
// Why: at 4k threads/core the per-thread sweeps (placement census, rebalancing,
// idle-suspension check, controller stages) chase one heap object
// per thread — ~200 bytes each, pointer-rich, allocator-scattered — and blow L2. The
// slab columns pack the same decisions into a few contiguous bytes per thread, so a
// sweep touches cachelines proportional to the *fields it reads*, not to sizeof
// (SimThread). The Corey lesson applied to our own hot paths.
//
// Ownership and coherence model:
//   - SimThread remains the canonical store. Every hot-field setter on SimThread
//     write-throughs to its bound slab (see task/thread.cc), so the columns are
//     coherent at every instant outside a dispatch slice — not rebuilt per tick.
//     (A slice's kRunning stays on the record: SimThread::BeginSlice.) Readers
//     (Machine census/rebalance/idle checks, controller stages) never run
//     inside a slice, so they never observe staleness; the invariant oracle
//     (harness/invariants.h) checks slab == object at every pick and
//     controller tick of a fuzzed run.
//   - Every column has a production reader (a Machine or controller sweep); a field
//     only the oracle would read stays on the object alone, and the scheduler keeps
//     its own per-position state (sched/rbs.h). The
//     slabs are read-only to everything but the SimThread setters.
//   - The columns are append-only and indexed by ThreadId: the registry binds each
//     thread as it creates it, so slot == id, and a thread keeps its slot for the
//     life of the slabs. An exited thread stays bound with state kExited, which every
//     sweep already skips by predicate. The Machine moves threads between cores by
//     rewriting the cpu column, never by moving records.
//   - Slot order is therefore the registry's creation order, which is what keeps
//     column sweeps bit-identical (including floating-point sum order) to the
//     SimThread* sweeps they replace.
#ifndef REALRATE_TASK_THREAD_SLABS_H_
#define REALRATE_TASK_THREAD_SLABS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "task/thread.h"
#include "util/assert.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

// Bound threads keep a pointer to their slabs, so the slabs must outlive them.
class ThreadSlabs {
 public:
  ThreadSlabs() = default;
  ThreadSlabs(const ThreadSlabs&) = delete;
  ThreadSlabs& operator=(const ThreadSlabs&) = delete;

  // Appends `thread` (not bound anywhere, id == slot_count()) as the next slot and
  // seeds its columns from the object. Amortized O(1).
  void Bind(SimThread* thread);

  // Bound threads, exited ones included. Column sweeps iterate [0, slot_count()) in
  // slot (== ThreadId) order.
  int32_t slot_count() const { return static_cast<int32_t>(state_.size()); }
  // Bound threads whose state column is kRunnable — the Machine's O(1)
  // idle-suspension check. Atomic (relaxed) because it is the one machine-wide
  // counter that state write-throughs touch from inside a parallel tick round,
  // where each host thread flips only its own core's threads; readers only run
  // at the epoch barrier, after the round's writes are already ordered.
  int64_t runnable_count() const { return runnable_count_.load(std::memory_order_relaxed); }

  // Per-core placement census, kept by write-through like runnable_count(): the
  // non-exited slots whose cpu column is `core`, and the sum of their granted
  // ppt among kReservation slots. Integers, so they equal a full column rescan
  // exactly, in any update order. O(1) reads; a core no slot has named reads 0.
  // Inside a parallel round only exits move them, and a thread exits on its own
  // core, so each core's entry has one writer: that core's host thread.
  int64_t live_on(CpuId core) const { return CensusAt(core).live; }
  int64_t reserved_ppt_on(CpuId core) const { return CensusAt(core).reserved_ppt; }

  // Concurrent-round mode: while true, runnable-count updates use an atomic RMW
  // (multiple host threads bump the counter from inside a fanned dispatch round);
  // while false — the sequential engine, and everything fenced to epoch
  // boundaries (Bind, wakes, migrations) — they use a plain load+store, which
  // keeps the lock prefix out of the dispatch hot loop.
  // The Machine toggles this around ParallelEngine::RunRound; the engine's
  // fork/join ordering publishes the flag to the workers. Const (with a mutable
  // flag) because it selects the counter-update instruction without changing
  // any observable column value — the Machine only holds a const view.
  void set_shared_mode(bool shared) const { shared_mode_ = shared; }

  // --- Column reads, by slot (== ThreadId) ---
  ThreadState state(int32_t slot) const { return state_[static_cast<size_t>(slot)]; }
  SchedPolicy policy(int32_t slot) const { return policy_[static_cast<size_t>(slot)]; }
  CpuId cpu(int32_t slot) const { return cpu_[static_cast<size_t>(slot)]; }
  // The granted reservation, as the scheduler/controller actuated it.
  int32_t granted_ppt(int32_t slot) const { return granted_ppt_[static_cast<size_t>(slot)]; }
  double importance(int32_t slot) const { return importance_[static_cast<size_t>(slot)]; }

  // Do `t`'s columns equal the object's canonical fields?
  bool MatchesObject(const SimThread& t) const;

 private:
  friend class SimThread;  // Write-through mirror hooks (task/thread.cc).

  void MirrorState(int32_t slot, ThreadState s) {
    const size_t i = static_cast<size_t>(slot);
    const int64_t delta =
        (s == ThreadState::kRunnable) - (state_[i] == ThreadState::kRunnable);
    if (delta != 0) {
      BumpRunnable(delta);
    }
    if ((s == ThreadState::kExited) != (state_[i] == ThreadState::kExited)) {
      CountSlot(i, -1);
      state_[i] = s;
      CountSlot(i, +1);
      return;
    }
    state_[i] = s;
  }
  void MirrorPolicy(int32_t slot, SchedPolicy p) {
    const size_t i = static_cast<size_t>(slot);
    CountSlot(i, -1);
    policy_[i] = p;
    CountSlot(i, +1);
  }
  void MirrorCpu(int32_t slot, CpuId core) {
    const size_t i = static_cast<size_t>(slot);
    CountSlot(i, -1);
    cpu_[i] = core;
    CountSlot(i, +1);
  }
  void MirrorImportance(int32_t slot, double w) { importance_[static_cast<size_t>(slot)] = w; }
  void MirrorGrantedPpt(int32_t slot, int32_t ppt) {
    const size_t i = static_cast<size_t>(slot);
    if (granted_ppt_[i] != ppt) {
      CountSlot(i, -1);
      granted_ppt_[i] = ppt;
      CountSlot(i, +1);
    }
  }

  struct CoreCensus {
    int64_t live = 0;
    int64_t reserved_ppt = 0;
  };
  const CoreCensus& CensusAt(CpuId core) const {
    static constexpr CoreCensus kEmpty;
    return static_cast<size_t>(core) < census_.size() ? census_[static_cast<size_t>(core)]
                                                      : kEmpty;
  }
  // Adds `sign` (+1/-1) times slot `i`'s current columns to its core's census.
  // Callers bracket a column change with -1 / +1.
  void CountSlot(size_t i, int64_t sign) {
    if (state_[i] == ThreadState::kExited) {
      return;
    }
    const size_t core = static_cast<size_t>(cpu_[i]);
    if (core >= census_.size()) {
      census_.resize(core + 1);
    }
    census_[core].live += sign;
    if (policy_[i] == SchedPolicy::kReservation) {
      census_[core].reserved_ppt += sign * granted_ppt_[i];
    }
  }

  // See set_shared_mode: RMW only while a parallel round is in flight; the
  // single-writer phases take the cheap non-RMW path.
  void BumpRunnable(int64_t delta) {
    if (shared_mode_) {
      runnable_count_.fetch_add(delta, std::memory_order_relaxed);
    } else {
      runnable_count_.store(runnable_count_.load(std::memory_order_relaxed) + delta,
                            std::memory_order_relaxed);
    }
  }

  // One entry per slot. Parallel vectors rather than a struct so each sweep streams
  // only the bytes it reads.
  std::vector<ThreadState> state_;
  std::vector<SchedPolicy> policy_;
  std::vector<CpuId> cpu_;
  std::vector<int32_t> granted_ppt_;
  std::vector<double> importance_;

  std::atomic<int64_t> runnable_count_{0};
  std::vector<CoreCensus> census_;  // Indexed by core; grows to the largest cpu seen.
  mutable bool shared_mode_ = false;
};

// Bump allocator for SimThread records: fixed-size chunks, placement-new, stable
// addresses for the life of the arena (threads are never destroyed individually —
// exited threads keep their record, matching the registry's id -> thread contract).
// Replaces one heap allocation per thread with one per kRecordsPerChunk threads, and
// lays records out contiguously in creation order — the order every registry sweep
// walks them in.
class ThreadArena {
 public:
  ThreadArena() = default;
  ThreadArena(const ThreadArena&) = delete;
  ThreadArena& operator=(const ThreadArena&) = delete;
  ~ThreadArena();  // Destroys records in reverse creation order.

  SimThread* Create(ThreadId id, std::string name, std::unique_ptr<WorkModel> work);
  size_t size() const { return records_.size(); }

 private:
  static constexpr size_t kRecordsPerChunk = 256;

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  size_t used_in_last_ = kRecordsPerChunk;  // Forces a chunk on first Create.
  std::vector<SimThread*> records_;         // Creation order, for destruction.
};

}  // namespace realrate

#endif  // REALRATE_TASK_THREAD_SLABS_H_
