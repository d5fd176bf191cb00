#include "sim/event_queue.h"

#include <utility>

#include "util/assert.h"

namespace realrate {

EventId EventQueue::Push(TimePoint when, Callback fn) {
  RR_EXPECTS(fn != nullptr);
  uint32_t slot = static_cast<uint32_t>(pool_.size());
  if (free_slots_.empty()) {
    pool_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const Key key{when.nanos(), next_seq_++, slot};
  pool_[slot].fn = std::move(fn);
  pool_[slot].seq = key.seq;
  ++pending_;

  // Sift-up: move the hole from the new leaf toward the root.
  size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(key, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  return IdOf(key);
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id) - 1;  // id 0 wraps to an absent slot.
  if (slot >= pool_.size()) {
    return false;
  }
  const uint64_t seq = pool_[slot].seq;
  if (seq == kFreeSeq || static_cast<uint32_t>(seq) != static_cast<uint32_t>(id >> 32)) {
    return false;
  }
  // The key stays in the heap; it no longer matches the slot, so it is skimmed when
  // it surfaces even if the slot has been reused by then.
  ReleaseSlot(slot);
  return true;
}

EventId EventQueue::Resched(EventId id, TimePoint when, Callback fn) {
  Cancel(id);  // Tolerates a stale id: the common "clock already fired" race.
  return Push(when, std::move(fn));
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  pool_[slot].fn = nullptr;
  pool_[slot].seq = kFreeSeq;
  free_slots_.push_back(slot);
  --pending_;
}

bool EventQueue::SkimDead() {
  while (!heap_.empty()) {
    if (IsLive(heap_.front())) {
      return true;
    }
    PopHeapTop();
  }
  return false;
}

void EventQueue::PopHeapTop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  // Sift-down: move the hole from the root toward the leaves until `last` fits.
  size_t i = 0;
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], last)) {
      break;
    }
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = last;
}

TimePoint EventQueue::PeekTime() {
  RR_EXPECTS(!Empty());
  SkimDead();
  return TimePoint::FromNanos(heap_.front().when_ns);
}

EventId EventQueue::PeekId() {
  RR_EXPECTS(!Empty());
  SkimDead();
  return IdOf(heap_.front());
}

EventQueue::Popped EventQueue::Pop() {
  RR_EXPECTS(!Empty());
  Popped out;
  PopBefore({TimePoint::Max(), kLastSeq}, &out);
  return out;
}

bool EventQueue::PopBefore(Position bound, Popped* out) {
  if (!SkimDead()) {
    return false;
  }
  const Key top = heap_.front();
  if (!Before(top, bound)) {
    return false;
  }
  out->id = IdOf(top);
  out->when = TimePoint::FromNanos(top.when_ns);
  out->fn = std::move(pool_[top.slot].fn);
  ReleaseSlot(top.slot);
  PopHeapTop();
  return true;
}

bool EventQueue::DropHeadIf(EventId id, TimePoint when, Position bound) {
  if (!SkimDead()) {
    return false;
  }
  const Key top = heap_.front();
  if (top.when_ns != when.nanos() || IdOf(top) != id || !Before(top, bound)) {
    return false;
  }
  ReleaseSlot(top.slot);
  PopHeapTop();
  return true;
}

}  // namespace realrate
