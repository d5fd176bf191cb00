#include "queue/registry.h"

#include <utility>

#include "util/assert.h"

namespace realrate {

BoundedBuffer* QueueRegistry::CreateQueue(std::string name, int64_t capacity_bytes) {
  const auto id = static_cast<QueueId>(queues_.size());
  queues_.push_back(std::make_unique<BoundedBuffer>(id, std::move(name), capacity_bytes));
  BoundedBuffer* queue = queues_.back().get();
  raw_queues_.push_back(queue);
  queue->registry_fill_ = &fill_total_;
  capacity_total_ += capacity_bytes;
  return queue;
}

void QueueRegistry::Register(BoundedBuffer* queue, ThreadId thread, QueueRole role) {
  RR_EXPECTS(queue != nullptr);
  RR_EXPECTS(thread != kInvalidThreadId);
  linkages_by_thread_[thread].push_back({queue, thread, role});
  ++linkage_epoch_[thread];
}

void QueueRegistry::Unregister(ThreadId thread) {
  linkages_by_thread_.erase(thread);
  ++linkage_epoch_[thread];
}

const std::vector<QueueLinkage>& QueueRegistry::LinkagesFor(ThreadId thread) const {
  static const std::vector<QueueLinkage> kNone;
  const auto it = linkages_by_thread_.find(thread);
  return it == linkages_by_thread_.end() ? kNone : it->second;
}

bool QueueRegistry::HasMetrics(ThreadId thread) const {
  const auto it = linkages_by_thread_.find(thread);
  return it != linkages_by_thread_.end() && !it->second.empty();
}

uint64_t QueueRegistry::linkage_epoch(ThreadId thread) const {
  const auto it = linkage_epoch_.find(thread);
  return it == linkage_epoch_.end() ? 0 : it->second;
}

BoundedBuffer* QueueRegistry::Find(QueueId id) {
  if (id < 0 || static_cast<size_t>(id) >= queues_.size()) {
    return nullptr;
  }
  return queues_[id].get();
}

}  // namespace realrate
