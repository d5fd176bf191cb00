// Building blocks of the controller's staged Sample → Estimate → Resolve → Actuate
// pipeline (see docs/ARCHITECTURE.md, "The control plane"). Each is a separately
// testable unit with a cheap incremental fast path and an O(n) recomputation its unit
// tests hold it to:
//
//   - SaturationWindow: the quality-exception evidence window with an O(1) running
//     evidence count (the original controller re-summed the whole 10×patience-entry
//     ring on every tick for every real-rate thread — the single largest term of the
//     monolithic sweep at scale).
//   - LinkageCache: the dirty-set sampler's per-thread snapshot of its queue
//     linkages. Cleanliness is decided by epoch counters — QueueRegistry's
//     per-thread registration epoch and each BoundedBuffer's change epoch (bumped on
//     every push/pop/saturation hit) — so a tick skips the pressure and saturation
//     sweeps entirely for threads whose queues did not move since the last tick.
//
// Both fast paths are semantics-preserving: a clean thread's cached pressure and
// saturation verdict are exactly what a fresh recomputation would produce, which is
// why the pipeline reproduces the original monolithic sweep's schedule bit for bit
// (the golden trace pins predate the pipeline).
#ifndef REALRATE_CORE_CONTROL_PIPELINE_H_
#define REALRATE_CORE_CONTROL_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "queue/registry.h"
#include "util/ring_buffer.h"
#include "util/types.h"

namespace realrate {

// Sliding window of per-interval saturation evidence with an O(1) running count.
// Push maintains the sum incrementally; ScanEvidence() is the O(window) recount the
// unit tests hold the running count to.
class SaturationWindow {
 public:
  explicit SaturationWindow(size_t capacity) : window_(capacity) {}

  void Push(uint8_t evidence) {
    if (window_.full()) {
      sum_ -= window_.Front();
    }
    window_.Push(evidence);
    sum_ += evidence;
  }

  // Evidence count over the retained window; O(1).
  int evidence() const { return sum_; }
  // Reference recomputation by full scan; O(window).
  int ScanEvidence() const {
    int total = 0;
    for (size_t i = 0; i < window_.size(); ++i) {
      total += window_[i];
    }
    return total;
  }

  void Clear() {
    window_.Clear();
    sum_ = 0;
  }

  size_t size() const { return window_.size(); }
  size_t capacity() const { return window_.capacity(); }

 private:
  RingBuffer<uint8_t> window_;
  int sum_ = 0;
};

// Whether one linkage's fill level alone satisfies the §3.3 saturation criterion: a
// consumer that cannot keep up sees its input pinned full; a producer that cannot
// keep up sees its output pinned empty. The hit-counter half of the criterion
// (failed pushes/pops since the last check) is delta-based and therefore false by
// definition on a clean tick — which is what makes the fill half cacheable.
inline bool FillStarved(const QueueLinkage& linkage, double fill_extreme) {
  const double fill = linkage.queue->FillFraction();
  return linkage.role == QueueRole::kConsumer ? fill >= fill_extreme
                                              : fill <= 1.0 - fill_extreme;
}

// First linkage queue (registration order) whose fill level is starved — a fresh
// recomputation of LinkageCache::static_saturated, for tests.
BoundedBuffer* StaticSaturatedQueue(const std::vector<QueueLinkage>& linkages,
                                    double fill_extreme);

// Per-thread dirty-set snapshot: the linkage list plus the epochs it was taken at,
// the progress pressure computed from it, and the fill-based saturation verdict.
// IsClean() compares epochs without touching any cached pointer until the
// registration epoch proves the linkage list itself is unchanged.
struct LinkageCache {
  bool primed = false;
  uint64_t registration_epoch = 0;
  // Borrowed from the registry; revalidated through registration_epoch before every
  // dereference (Register/Unregister bump the epoch, so a stale pointer is never
  // followed).
  const std::vector<QueueLinkage>* linkages = nullptr;
  std::vector<uint64_t> queue_epochs;
  double pressure = 0.0;
  BoundedBuffer* static_saturated = nullptr;

  // True iff the linkage list and every linked queue are untouched since Refresh:
  // the thread's pressure and fill-saturation verdict are provably unchanged.
  bool IsClean(const QueueRegistry& queues, ThreadId thread) const {
    if (!primed || registration_epoch != queues.linkage_epoch(thread)) {
      return false;
    }
    const std::vector<QueueLinkage>& links = *linkages;
    for (size_t i = 0; i < links.size(); ++i) {
      if (queue_epochs[i] != links[i].queue->change_epoch()) {
        return false;
      }
    }
    return true;
  }

  // Re-snapshots the linkage list and its epochs; returns the (fresh) linkages.
  const std::vector<QueueLinkage>& Refresh(const QueueRegistry& queues, ThreadId thread) {
    linkages = &queues.LinkagesFor(thread);
    registration_epoch = queues.linkage_epoch(thread);
    queue_epochs.resize(linkages->size());
    for (size_t i = 0; i < linkages->size(); ++i) {
      queue_epochs[i] = (*linkages)[i].queue->change_epoch();
    }
    primed = true;
    return *linkages;
  }
};

}  // namespace realrate

#endif  // REALRATE_CORE_CONTROL_PIPELINE_H_
