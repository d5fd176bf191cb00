// QueueRegistry: the paper's meta-interface. "When an application initializes a
// symbiotic interface ... the interface creates a linkage to the kernel using a
// meta-interface system call that registers the queue and the application's use of that
// queue (producer or consumer)." The controller walks these linkages to compute
// progress pressure.
#ifndef REALRATE_QUEUE_REGISTRY_H_
#define REALRATE_QUEUE_REGISTRY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "queue/bounded_buffer.h"
#include "util/types.h"

namespace realrate {

// One end of a registered queue: which thread plays which role.
struct QueueLinkage {
  BoundedBuffer* queue = nullptr;
  ThreadId thread = kInvalidThreadId;
  QueueRole role = QueueRole::kProducer;
};

class QueueRegistry {
 public:
  QueueRegistry() = default;
  // Its buffers point at fill_total_, so the registry stays where it was built.
  QueueRegistry(const QueueRegistry&) = delete;
  QueueRegistry& operator=(const QueueRegistry&) = delete;

  // Creates a buffer owned by the registry.
  BoundedBuffer* CreateQueue(std::string name, int64_t capacity_bytes);

  // Registers `thread` as `role` of `queue` (the meta-interface system call). A thread
  // may be linked to several queues (pipeline stages are consumer of one, producer of
  // the next).
  void Register(BoundedBuffer* queue, ThreadId thread, QueueRole role);
  // Removes all linkages for `thread` (e.g. on exit).
  void Unregister(ThreadId thread);

  // All linkages for one thread, in registration order. O(1): served from a
  // per-thread index (the controller reads this for every controlled thread on every
  // iteration, so a scan over all linkages here is quadratic machine-wide). The
  // reference is invalidated by Register()/Unregister() for that thread.
  const std::vector<QueueLinkage>& LinkagesFor(ThreadId thread) const;
  // Whether the thread has any registered progress metric. O(1).
  bool HasMetrics(ThreadId thread) const;
  // Per-thread registration change epoch: bumped by every Register/Unregister for
  // `thread`. The controller's dirty-set sampler uses it (together with each queue's
  // BoundedBuffer::change_epoch) to prove a thread's linkage view unchanged since
  // the previous controller tick — and to revalidate any cached LinkagesFor
  // reference before following it. Monotone per thread; 0 = never registered.
  uint64_t linkage_epoch(ThreadId thread) const;

  BoundedBuffer* Find(QueueId id);
  size_t queue_count() const { return queues_.size(); }

  // Machine-wide fill fraction in [0, 1] (the cluster router's queue signal): the
  // byte sums of fill() and capacity() over AllQueues(). O(1): both sums are exact
  // integer running totals, the fill one kept by every buffer's fill change. 0 when
  // the machine has no queues yet (a queueless machine exerts no pressure either way
  // on the cluster router).
  double AggregateFillFraction() const {
    return capacity_total_ == 0
               ? 0.0
               : static_cast<double>(fill_total_) / static_cast<double>(capacity_total_);
  }
  // O(1) reference to the registry's own pointer index (the invariant oracle sweeps
  // every queue once per tick round). Invalidated by CreateQueue().
  const std::vector<BoundedBuffer*>& AllQueues() const { return raw_queues_; }

 private:
  std::vector<std::unique_ptr<BoundedBuffer>> queues_;
  std::vector<BoundedBuffer*> raw_queues_;  // queues_[i].get(), kept by CreateQueue().
  int64_t fill_total_ = 0;      // Sum of fill(), kept by BoundedBuffer::ApplyFillDelta.
  int64_t capacity_total_ = 0;  // Sum of capacity(), kept by CreateQueue().
  // The linkage store, indexed the way every reader reads it: per thread, in
  // registration order within a thread.
  std::unordered_map<ThreadId, std::vector<QueueLinkage>> linkages_by_thread_;
  // Registration epochs survive Unregister (a removed thread's epoch keeps
  // advancing) so stale cached references can never revalidate.
  std::unordered_map<ThreadId, uint64_t> linkage_epoch_;
};

}  // namespace realrate

#endif  // REALRATE_QUEUE_REGISTRY_H_
