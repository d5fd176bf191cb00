#include "sim/simulator.h"

#include <utility>

#include "util/assert.h"

namespace realrate {

Simulator::Simulator(const CpuConfig& cpu_config, int num_cpus) {
  RR_EXPECTS(num_cpus >= 1);
  cpus_.reserve(static_cast<size_t>(num_cpus));
  for (int i = 0; i < num_cpus; ++i) {
    cpus_.emplace_back(cpu_config, static_cast<CpuId>(i));
  }
}

Cycles Simulator::UsedAllCpus(CpuUse category) const {
  Cycles total = 0;
  for (const Cpu& c : cpus_) {
    total += c.Used(category);
  }
  return total;
}

EventId Simulator::ScheduleAt(TimePoint t, EventQueue::Callback fn) {
  RR_EXPECTS(t >= now_);
  return events_.Push(t, std::move(fn));
}

EventId Simulator::ScheduleAfter(Duration d, EventQueue::Callback fn) {
  RR_EXPECTS(d >= Duration::Zero());
  return events_.Push(now_ + d, std::move(fn));
}

Simulator::CursorId Simulator::AddCursor(EventQueue::Callback deliver) {
  RR_EXPECTS(deliver != nullptr);
  RR_EXPECTS(!delivering_);  // The callback running now lives in cursors_.
  cursors_.push_back(Cursor{std::move(deliver), {}, false});
  return static_cast<CursorId>(cursors_.size() - 1);
}

void Simulator::RemoveCursor(CursorId id) {
  RR_EXPECTS(!delivering_);
  RR_EXPECTS(id < cursors_.size() && cursors_[id].deliver != nullptr);
  cursors_[id] = Cursor{};
  FindNextCursor();
}

void Simulator::Arm(CursorId id, TimePoint when) {
  RR_EXPECTS(id < cursors_.size() && cursors_[id].deliver != nullptr);
  RR_EXPECTS(!cursors_[id].armed);
  RR_EXPECTS(when >= now_);
  Cursor& c = cursors_[id];
  c.at = {when, events_.DrawSeq()};
  c.armed = true;
  if (next_cursor_ == kNoCursor || c.at < cursors_[next_cursor_].at) {
    next_cursor_ = id;
  }
}

void Simulator::FindNextCursor() {
  next_cursor_ = kNoCursor;
  for (size_t i = 0; i < cursors_.size(); ++i) {
    const Cursor& c = cursors_[i];
    if (c.armed && (next_cursor_ == kNoCursor || c.at < cursors_[next_cursor_].at)) {
      next_cursor_ = i;
    }
  }
}

size_t Simulator::pending_events() const {
  size_t armed = 0;
  for (const Cursor& c : cursors_) {
    armed += c.armed ? 1 : 0;
  }
  return events_.PendingCount() + armed;
}

bool Simulator::Step() { return RunNext(TimePoint::Max()); }

EventQueue::Position Simulator::HeapBound(TimePoint limit) const {
  if (next_cursor_ != kNoCursor && cursors_[next_cursor_].at.when <= limit) {
    return cursors_[next_cursor_].at;
  }
  return {limit, EventQueue::kLastSeq};
}

bool Simulator::RunNext(TimePoint limit) {
  const EventQueue::Position bound = HeapBound(limit);
  EventQueue::Popped event;
  if (events_.PopBefore(bound, &event)) {
    RR_CHECK(event.when >= now_);
    now_ = event.when;
    ++events_processed_;
    event.fn();
    return true;
  }
  if (bound.seq == EventQueue::kLastSeq) {
    return false;  // No cursor due either.
  }
  Cursor& c = cursors_[next_cursor_];
  RR_CHECK(c.at.when >= now_);
  now_ = c.at.when;
  c.armed = false;
  FindNextCursor();
  delivering_ = true;
  c.deliver();
  delivering_ = false;
  return true;
}

bool Simulator::PopExpected(EventId id, TimePoint t) {
  if (!events_.DropHeadIf(id, t, HeapBound(t))) {  // Never matches kInvalidEventId.
    return false;
  }
  RR_CHECK(t >= now_);
  now_ = t;
  ++events_processed_;
  return true;
}

void Simulator::RunUntil(TimePoint t) {
  RR_EXPECTS(t >= now_);
  while (RunNext(t)) {
  }
  now_ = t;
}

}  // namespace realrate
