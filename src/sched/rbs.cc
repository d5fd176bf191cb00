#include "sched/rbs.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/assert.h"

namespace realrate {

namespace {
// Reserved threads always outrank non-reserved ones. The goodness of a reserved thread
// with remaining budget is this base plus a rate-monotonic bonus; non-reserved threads
// score in [1, kRmBase).
constexpr int64_t kRmBase = int64_t{1} << 40;

// The rate-monotonic bonus is PeriodRank (rbs.h): periods-per-hour, shared by
// Goodness, the pick key and the invariant oracle, so no consumer can disagree on
// ordering.
int64_t RmRank(const SimThread* thread) { return PeriodRank(thread->period()); }

// due_ns_ of a thread without a reservation: no tick replenishes it.
constexpr int64_t kNeverDue = INT64_MAX;
}  // namespace

RbsScheduler::RbsScheduler(const Cpu& cpu, const RbsConfig& config)
    : cpu_(cpu), config_(config) {}

RbsScheduler::~RbsScheduler() {
  for (size_t pos = 0; pos < threads_.size(); ++pos) {
    threads_[pos]->set_sched_slot(SimThread::kNoSchedSlot);
  }
}

void RbsScheduler::Refresh(size_t pos) {
  const SimThread* thread = threads_[pos];
  const bool reserved = HasReservation(thread);
  const int64_t deadline = (thread->period_start() + thread->period()).nanos();
  due_ns_[pos] = reserved ? deadline : kNeverDue;
  if (reserved) {
    nodes_[pos].key =
        config_.order == DispatchOrder::kEarliestDeadlineFirst ? deadline : -RmRank(thread);
  }
  Reindex(pos);
}

void RbsScheduler::ReindexThread(const SimThread* thread) {
  if (const size_t pos = PositionOf(thread); pos != SimThread::kNoSchedSlot) {
    Reindex(pos);
  }
}

void RbsScheduler::Reindex(size_t pos) {
  const SimThread* thread = threads_[pos];
  Node& node = nodes_[pos];
  if (node.runnable) {
    --(node.reserved ? runnable_reserved_ : runnable_unreserved_);
  }
  const ThreadState state = thread->state();
  // kRunning is transient within one dispatch iteration; by the next PickNext the
  // thread is back to kRunnable or has left through an OnBlock/RemoveThread hook, so
  // counting it runnable keeps the flags exact at every pick.
  node.runnable = state == ThreadState::kRunnable || state == ThreadState::kRunning;
  node.reserved = HasReservation(thread);
  node.eligible = node.runnable && node.reserved && thread->budget_remaining() > 0;
  if (node.runnable) {
    ++(node.reserved ? runnable_reserved_ : runnable_unreserved_);
  }
  if (!indexing_on_) {
    return;  // Scanning: no bitmaps to maintain.
  }
  if (node.key_slot >= 0) {
    if (node.eligible && key_slots_[static_cast<size_t>(node.key_slot)].key == node.key) {
      return;  // Membership and key unchanged: the common OnRan case, O(1).
    }
    Unlink(pos);
  }
  if (node.eligible) {
    Link(pos);
  }
}

void RbsScheduler::Link(size_t pos) {
  Node& node = nodes_[pos];
  const auto it = std::lower_bound(live_keys_.begin(), live_keys_.end(), node.key,
                                   KeyAfter);
  int32_t slot = 0;
  if (it != live_keys_.end() && it->key == node.key) {
    slot = it->slot;
  } else {
    if (free_slots_.empty()) {
      slot = static_cast<int32_t>(key_slots_.size());
      key_slots_.emplace_back();
      bits_.resize(bits_.size() + words_, 0);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    key_slots_[static_cast<size_t>(slot)].key = node.key;
    live_keys_.insert(it, LiveKey{node.key, slot});
  }
  SlotBits(slot)[pos / 64] |= uint64_t{1} << (pos % 64);
  ++key_slots_[static_cast<size_t>(slot)].members;
  node.key_slot = slot;
}

void RbsScheduler::Unlink(size_t pos) {
  Node& node = nodes_[pos];
  const int32_t slot = node.key_slot;
  node.key_slot = -1;
  SlotBits(slot)[pos / 64] &= ~(uint64_t{1} << (pos % 64));
  KeySlot& ks = key_slots_[static_cast<size_t>(slot)];
  if (--ks.members == 0) {  // The bitmap is all-zero again: free the slot.
    const auto it = std::lower_bound(live_keys_.begin(), live_keys_.end(), ks.key,
                                     KeyAfter);
    RR_CHECK(it != live_keys_.end() && it->slot == slot);
    live_keys_.erase(it);
    free_slots_.push_back(slot);
  }
}

void RbsScheduler::ActivateIndexing() {
  // Link every eligible position. Reads only the flags the hooks keep, so the
  // schedule is unaffected.
  indexing_on_ = true;
  for (size_t pos = 0; pos < nodes_.size(); ++pos) {
    if (nodes_[pos].eligible) {
      Link(pos);
    }
  }
}

void RbsScheduler::DeactivateIndexing() {
  indexing_on_ = false;
  live_keys_.clear();
  key_slots_.clear();
  free_slots_.clear();
  bits_.clear();
  for (Node& node : nodes_) {
    node.key_slot = -1;
  }
}

void RbsScheduler::MaybeSwitchIndexing() {
  const size_t n = threads_.size();
  if (!indexing_on_ && n >= kIndexOnThreads) {
    ActivateIndexing();
  } else if (indexing_on_ && n < kIndexOnThreads / 2) {
    DeactivateIndexing();
  }
}

void RbsScheduler::AddThread(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(thread->sched_slot() == SimThread::kNoSchedSlot);  // Enqueued nowhere.
  const size_t pos = threads_.size();
  threads_.push_back(thread);
  due_ns_.push_back(kNeverDue);
  nodes_.emplace_back();
  thread->set_sched_slot(pos);
  if (threads_.size() > words_ * 64) {
    words_ = std::max<size_t>(1, 2 * words_);  // Rare: rebuild at the doubled stride.
    if (indexing_on_) {
      DeactivateIndexing();
      ActivateIndexing();
    }
  }
  Refresh(pos);
  MaybeSwitchIndexing();
}

void RbsScheduler::RemoveThread(SimThread* thread) {
  const size_t pos = PositionOf(thread);
  if (pos == SimThread::kNoSchedSlot) {
    return;
  }
  Node& node = nodes_[pos];
  if (node.runnable) {
    --(node.reserved ? runnable_reserved_ : runnable_unreserved_);
  }
  if (node.key_slot >= 0) {
    Unlink(pos);
  }
  // Positions above `pos` move down one: shift every live bitmap's upper bits.
  const size_t first = pos / 64;
  const uint64_t keep = (uint64_t{1} << (pos % 64)) - 1;
  for (const LiveKey& live : live_keys_) {
    uint64_t* bits = SlotBits(live.slot);
    bits[first] = (bits[first] & keep) | ((bits[first] >> 1) & ~keep);
    for (size_t w = first + 1; w < words_; ++w) {
      bits[w - 1] |= bits[w] << 63;
      bits[w] >>= 1;
    }
  }
  const auto at = static_cast<std::ptrdiff_t>(pos);
  threads_.erase(threads_.begin() + at);
  due_ns_.erase(due_ns_.begin() + at);
  nodes_.erase(nodes_.begin() + at);
  for (size_t p = pos; p < threads_.size(); ++p) {
    threads_[p]->set_sched_slot(p);
  }
  thread->set_sched_slot(SimThread::kNoSchedSlot);
  MaybeSwitchIndexing();
}

Cycles RbsScheduler::PeriodBudget(const SimThread* thread) const {
  return static_cast<Cycles>(thread->proportion().ToFraction() *
                             static_cast<double>(cpu_.DurationToCycles(thread->period())));
}

void RbsScheduler::Replenish(size_t pos, TimePoint now) {
  // Called once `now` reached the thread's deadline: advance whole periods until
  // `now` falls inside the current one.
  SimThread* thread = threads_[pos];
  TimePoint start = thread->period_start();
  const Duration period = thread->period();
  // Deadline check for the period that just closed: a thread that was runnable for the
  // whole period (it did not wake mid-period) and is still runnable at the boundary
  // wanted more CPU than it received; if it also fell short of the budget it was
  // entitled to at the period's start, the scheduler failed to deliver the reservation.
  const Cycles entitled = thread->period_entitlement();
  if (thread->state() == ThreadState::kRunnable && thread->last_wake_time() <= start &&
      thread->cycles_this_period() < entitled) {
    thread->CountDeadlineMiss();
    if (miss_fn_) {
      miss_fn_(thread, entitled - thread->cycles_this_period(), now);
    }
  }
  while (now >= start + period) {
    start += period;
  }
  const Cycles budget = PeriodBudget(thread);
  thread->set_period_start(start);
  thread->set_budget_remaining(budget);
  thread->set_period_entitlement(budget);
  thread->ResetPeriodCycles();
  Refresh(pos);
}

void RbsScheduler::OnTick(TimePoint now) {
  // One replenish sweep in admission order, in both pick modes: the deadline-miss
  // callbacks can observe the order. due_ns_ holds each
  // reserved thread's period end (kNeverDue otherwise), so the common not-due tick is
  // one contiguous compare loop that touches no thread object.
  const int64_t now_ns = now.nanos();
  for (size_t pos = 0; pos < due_ns_.size(); ++pos) {
    if (due_ns_[pos] <= now_ns) {
      Replenish(pos, now);
    }
  }
}

void RbsScheduler::OnTicksSkipped(int64_t /*count*/, TimePoint now) {
  // Replenish is written to catch up across any number of elapsed periods, and the
  // deadline-miss check cannot fire while nothing is runnable, so one sweep
  // at the final skipped tick reproduces `count` per-tick passes exactly.
  OnTick(now);
}

void RbsScheduler::OnWake(SimThread* thread, TimePoint /*now*/) { ReindexThread(thread); }

void RbsScheduler::OnBlock(SimThread* thread, TimePoint /*now*/) { ReindexThread(thread); }

int64_t RbsScheduler::Goodness(const SimThread* thread) const {
  if (!thread->IsRunnable() && thread->state() != ThreadState::kRunning) {
    return 0;
  }
  if (HasReservation(thread)) {
    if (thread->budget_remaining() <= 0) {
      return 0;  // Used its allocation; sleeps until next period.
    }
    // Rate-monotonic: shorter period => higher goodness.
    return kRmBase + RmRank(thread);
  }
  // Non-reserved: modest goodness so they run only when no reserved thread can.
  return 1;
}

SimThread* RbsScheduler::PickReservedScan() {
  // The O(n) scan over the hook-kept flags: the eligible thread with the smallest key
  // (highest rank, or earliest deadline), the earliest-admitted among equals — the
  // same (key, position) order the index's lowest set bit gives.
  size_t best = SimThread::kNoSchedSlot;
  int64_t best_key = INT64_MAX;
  for (size_t pos = 0; pos < nodes_.size(); ++pos) {
    if (nodes_[pos].eligible && nodes_[pos].key < best_key) {
      best = pos;
      best_key = nodes_[pos].key;
    }
  }
  return best == SimThread::kNoSchedSlot ? nullptr : threads_[best];
}

SimThread* RbsScheduler::PickReservedIndexed() {
  // The best key's lowest set bit: among the threads with the best key, the
  // earliest-admitted.
  if (live_keys_.empty()) {
    return nullptr;
  }
  const uint64_t* bits = SlotBits(live_keys_.back().slot);
  size_t w = 0;
  while (bits[w] == 0) {
    ++w;  // A live key has a set bit, so this stops inside the bitmap.
  }
  return threads_[w * 64 + static_cast<size_t>(std::countr_zero(bits[w]))];
}

SimThread* RbsScheduler::PickFallbackRoundRobin() {
  // No reserved thread can run: round-robin over the remaining runnables (non-reserved
  // threads, plus exhausted reserved threads when work-conserving). The cursor is
  // positional, so this path stays O(n) but is gated by the occupancy counts in
  // PickNext and only runs when it will find work.
  const size_t n = nodes_.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = (rr_cursor_ + i) % n;
    const Node& node = nodes_[pos];
    if (node.runnable && (!node.reserved || (config_.work_conserving && !node.eligible))) {
      rr_cursor_ = (pos + 1) % n;
      return threads_[pos];
    }
  }
  return nullptr;
}

SimThread* RbsScheduler::PickNext(TimePoint /*now*/) {
  if (SimThread* pick = indexing_on_ ? PickReservedIndexed() : PickReservedScan()) {
    // Flag-integrity check: every mutation that can change eligibility must have
    // gone through a hook; a wrong pick here means a change bypassed them.
    RR_CHECK(pick->IsRunnable() && HasReservation(pick) && pick->budget_remaining() > 0);
    return pick;
  }
  // Secondary (occupancy) index: skip the positional fallback scan outright when no
  // round-robin candidate exists — the common case in a farm of blocked threads. No
  // thread is eligible (or we would not be here), so runnable_reserved_ counts only
  // exhausted ones.
  const bool have_unreserved = runnable_unreserved_ > 0;
  const bool have_exhausted = config_.work_conserving && runnable_reserved_ > 0;
  if (!have_unreserved && !have_exhausted) {
    return nullptr;
  }
  return PickFallbackRoundRobin();
}

Cycles RbsScheduler::MaxGrant(SimThread* thread, Cycles tick_remaining) {
  if (HasReservation(thread) && thread->budget_remaining() > 0) {
    return std::min(tick_remaining, thread->budget_remaining());
  }
  return tick_remaining;
}

Cycles RbsScheduler::RoundCycleBound(const SimThread* thread, Cycles tick_cycles) const {
  // In work-conserving mode an exhausted reservation may still absorb the whole
  // tick, so only the non-work-conserving case can tighten the bound. MaxGrant clips
  // every grant against budget_remaining, but the gate evaluates BEFORE OnTick runs:
  // a period boundary inside the tick replenishes the budget to PeriodBudget, so the
  // sound per-tick ceiling is whichever of the two is larger (a replenishment resets
  // to exactly PeriodBudget; it never adds to a remainder).
  if (config_.work_conserving || !HasReservation(thread)) {
    return tick_cycles;
  }
  const Cycles ceiling = std::max(thread->budget_remaining(), PeriodBudget(thread));
  return std::min(tick_cycles, ceiling);
}

void RbsScheduler::OnRan(SimThread* thread, Cycles used, TimePoint /*now*/) {
  if (HasReservation(thread)) {
    thread->set_budget_remaining(std::max<Cycles>(0, thread->budget_remaining() - used));
    if (thread->budget_remaining() <= 0) {
      // Only an emptied budget can change the flags: running moves nothing else
      // they read, and a budget still above zero was above zero before.
      ReindexThread(thread);
    }
  }
}

std::optional<TimePoint> RbsScheduler::ThrottleUntil(SimThread* thread, TimePoint /*now*/) {
  if (!HasReservation(thread) || config_.work_conserving) {
    return std::nullopt;
  }
  if (thread->budget_remaining() > 0) {
    return std::nullopt;
  }
  // "When a thread has used its allocation for its period, it is put to sleep until its
  // next period begins."
  return thread->period_start() + thread->period();
}

void RbsScheduler::SetReservation(SimThread* thread, Proportion proportion, Duration period,
                                  TimePoint now) {
  RR_EXPECTS(thread != nullptr);
  // A thread enqueued on some scheduler must be actuated through that instance —
  // its indexed run-queue state lives there (route via the thread's core, as
  // FeedbackAllocator::SchedulerFor does). A thread enqueued nowhere may be actuated
  // by any instance (reservation state lives on the thread).
  const size_t pos = PositionOf(thread);
  RR_EXPECTS(thread->sched_slot() == SimThread::kNoSchedSlot || pos != SimThread::kNoSchedSlot);
  const bool fresh =
      thread->policy() != SchedPolicy::kReservation || thread->period() != period;
  thread->set_policy(SchedPolicy::kReservation);
  thread->SetReservation(proportion, period);
  if (fresh) {
    // New reservation or new period: start a fresh period at `now`.
    thread->set_period_start(now);
    thread->set_budget_remaining(PeriodBudget(thread));
    thread->set_period_entitlement(PeriodBudget(thread));
    thread->ResetPeriodCycles();
  } else {
    // Proportion-only change (the controller's common actuation): keep the current
    // period phase and recompute the remaining budget as if the new proportion had
    // applied all period — full new budget minus what was already consumed. Stateless
    // in the history of intra-period updates, so an oscillating controller cannot
    // accumulate a budget bias.
    thread->set_budget_remaining(
        std::max<Cycles>(0, PeriodBudget(thread) - thread->cycles_this_period()));
  }
  if (pos != SimThread::kNoSchedSlot) {
    Refresh(pos);
  }
}

void RbsScheduler::ApplyReservations(const std::vector<ReservationUpdate>& batch,
                                     TimePoint now) {
  for (const ReservationUpdate& update : batch) {
    SetReservation(update.thread, update.proportion, update.period, now);
  }
}

Proportion RbsScheduler::TotalReserved() const {
  Proportion total = Proportion::Zero();
  for (const SimThread* t : threads_) {
    if (t->policy() == SchedPolicy::kReservation) {
      total += t->proportion();
    }
  }
  return total;
}

}  // namespace realrate
