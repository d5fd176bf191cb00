#include "sched/rbs.h"

#include <algorithm>

#include "util/assert.h"

namespace realrate {

namespace {
// Reserved threads always outrank non-reserved ones. The goodness of a reserved thread
// with remaining budget is this base plus a rate-monotonic bonus; non-reserved threads
// score in [1, kRmBase).
constexpr int64_t kRmBase = int64_t{1} << 40;

// The rate-monotonic bonus is PeriodRank (task/thread_slabs.h): periods-per-hour,
// shared by Goodness (the scan's semantics), the pick index (the incrementally
// maintained key), and the slab rm_rank column, so no consumer can disagree on
// ordering.
int64_t RmRank(const SimThread* thread) { return PeriodRank(thread->period()); }
}  // namespace

RbsScheduler::RbsScheduler(const Cpu& cpu, const RbsConfig& config)
    : cpu_(cpu), config_(config) {}

RbsScheduler::~RbsScheduler() {
  for (auto& [thread, node] : nodes_) {
    if (thread->sched_slot() == &node) {
      thread->set_sched_slot(nullptr);
    }
  }
}

RbsScheduler::Node* RbsScheduler::FindNode(SimThread* thread) {
  // The slot is a cache of &nodes_[thread], valid only when this instance owns the
  // thread's run-queue membership — one pointer read instead of a hash lookup on
  // every OnRan/OnBlock/OnWake along the dispatch hot path.
  auto* node = static_cast<Node*>(thread->sched_slot());
  return node != nullptr && node->owner == this ? node : nullptr;
}

void RbsScheduler::Reindex(SimThread* thread) {
  if (!indexing_on_) {
    return;  // Scanning: no index to maintain.
  }
  Node* node = FindNode(thread);
  if (node == nullptr) {
    return;  // Not scheduled here (e.g. cross-core actuation); nothing to maintain.
  }
  const ThreadState state = thread->state();
  // kRunning is transient within one dispatch iteration; by the next PickNext the
  // thread is back to kRunnable or has left through an OnBlock/RemoveThread hook, so
  // counting it "active" keeps the index exact at every pick.
  const bool active = state == ThreadState::kRunnable || state == ThreadState::kRunning;
  const bool reserved = HasReservation(thread);

  if (node->counted_runnable) {
    --(node->counted_reserved ? runnable_reserved_ : runnable_unreserved_);
  }
  node->counted_runnable = active;
  node->counted_reserved = reserved;
  if (active) {
    ++(reserved ? runnable_reserved_ : runnable_unreserved_);
  }

  const bool eligible = active && reserved && thread->budget_remaining() > 0;
  int64_t primary = 0;
  if (eligible) {
    primary = config_.order == DispatchOrder::kEarliestDeadlineFirst
                  ? (thread->period_start() + thread->period()).nanos()
                  : -RmRank(thread);
  }
  if (node->in_pick_index) {
    if (eligible && primary == node->pick_primary) {
      return;  // Membership and key unchanged: the common OnRan case, O(1).
    }
    node->in_pick_index = false;  // The heap entry is now stale (generation mismatch).
    if (node->pick_slot != ThreadSlabs::kNoSlot) {
      pick_gen_by_slot_[static_cast<size_t>(node->pick_slot)] = 0;
    }
    --pick_live_;
  }
  if (eligible) {
    node->pick_gen = next_gen_++;
    const int32_t slot = slabs_ != nullptr && thread->bound_slabs() == slabs_
                             ? thread->slab_slot()
                             : ThreadSlabs::kNoSlot;
    node->pick_slot = slot;
    if (slot != ThreadSlabs::kNoSlot) {
      if (static_cast<size_t>(slot) >= pick_gen_by_slot_.size()) {
        pick_gen_by_slot_.resize(static_cast<size_t>(slot) + 1, 0);
      }
      pick_gen_by_slot_[static_cast<size_t>(slot)] = node->pick_gen;
    }
    pick_index_.push_back(PickKey{primary, node->seq, node->pick_gen, slot, thread});
    std::push_heap(pick_index_.begin(), pick_index_.end(), std::greater<PickKey>{});
    node->pick_primary = primary;
    node->in_pick_index = true;
    ++pick_live_;
  }
  if (pick_index_.size() > 64 &&
      pick_index_.size() > 4 * static_cast<size_t>(pick_live_)) {
    CompactPickIndex();
  }
}

void RbsScheduler::CompactPickIndex() {
  std::erase_if(pick_index_, [this](const PickKey& key) { return !PickEntryCurrent(key); });
  std::make_heap(pick_index_.begin(), pick_index_.end(), std::greater<PickKey>{});
  RR_CHECK(pick_index_.size() == static_cast<size_t>(pick_live_));
}

void RbsScheduler::RearmReplenish(SimThread* thread, Node& node) {
  node.replenish_gen = next_gen_++;  // Any older due-heap entry is now stale.
  // With full slab coverage OnTick replenishes off the deadline column instead of
  // the due-heap (see OnTick), so feeding the heap would only grow garbage.
  if (indexing_on_ && !UseColumns() && HasReservation(thread)) {
    due_.push(DueEntry{thread->period_start() + thread->period(), node.seq,
                       node.replenish_gen, thread});
  }
}

void RbsScheduler::ActivateIndexing() {
  // Rebuild the pick index, occupancy counts, and due-heap from the thread vector.
  // Reads only; no thread state changes, so the schedule is unaffected. The counts
  // are zero here: they are only maintained while indexing is on, and Deactivate
  // (or construction) zeroed them.
  indexing_on_ = true;
  for (SimThread* t : threads_) {
    Node* node = FindNode(t);
    RR_CHECK(node != nullptr);
    RearmReplenish(t, *node);
    Reindex(t);
  }
}

void RbsScheduler::DeactivateIndexing() {
  indexing_on_ = false;
  pick_index_.clear();
  pick_live_ = 0;
  std::fill(pick_gen_by_slot_.begin(), pick_gen_by_slot_.end(), 0);
  due_ = {};  // Entries would die by generation anyway; drop them wholesale.
  runnable_unreserved_ = 0;
  runnable_reserved_ = 0;
  for (auto& [thread, node] : nodes_) {
    node.in_pick_index = false;
    node.counted_runnable = false;
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
  RR_EXPECTS(std::find(threads_.begin(), threads_.end(), thread) == threads_.end());
  const bool had_columns = UseColumns();
  threads_.push_back(thread);
  const int32_t slot = thread->slab_slot();
  if (slot != ThreadSlabs::kNoSlot &&
      (slabs_ == nullptr || slabs_ == thread->bound_slabs())) {
    slabs_ = thread->bound_slabs();
    slots_.push_back(slot);
  } else {
    slots_.push_back(ThreadSlabs::kNoSlot);  // Unbound (or foreign slab): no columns.
    ++unbound_;
  }
  if (indexing_on_ && had_columns && !UseColumns()) {
    // This thread just broke column coverage: OnTick falls back to the due-heap,
    // which sat empty while the column sweep replenished. Re-arm every enqueued
    // thread so the heap has a current entry per reservation again.
    for (SimThread* t : threads_) {
      if (Node* n = FindNode(t)) {
        RearmReplenish(t, *n);
      }
    }
  }
  Node& node = nodes_[thread];  // Node-based container: the address is stable.
  node.owner = this;
  node.seq = next_seq_++;
  thread->set_sched_slot(&node);
  RearmReplenish(thread, node);
  Reindex(thread);
  MaybeSwitchIndexing();
}

void RbsScheduler::RemoveThread(SimThread* thread) {
  const auto it = std::find(threads_.begin(), threads_.end(), thread);
  if (it != threads_.end()) {
    const size_t idx = static_cast<size_t>(it - threads_.begin());
    if (slots_[idx] == ThreadSlabs::kNoSlot) {
      --unbound_;
    }
    threads_.erase(it);
    slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(idx));
  }
  Node* node = FindNode(thread);
  if (node == nullptr) {
    return;
  }
  if (node->in_pick_index) {
    node->in_pick_index = false;  // Heap entry dies lazily (and by FindNode below).
    if (node->pick_slot != ThreadSlabs::kNoSlot) {
      pick_gen_by_slot_[static_cast<size_t>(node->pick_slot)] = 0;
    }
    --pick_live_;
  }
  if (node->counted_runnable) {
    --(node->counted_reserved ? runnable_reserved_ : runnable_unreserved_);
  }
  thread->set_sched_slot(nullptr);
  nodes_.erase(thread);  // Orphaned due-heap entries die by generation mismatch.
  MaybeSwitchIndexing();
}

Cycles RbsScheduler::PeriodBudget(const SimThread* thread) const {
  return static_cast<Cycles>(thread->proportion().ToFraction() *
                             static_cast<double>(cpu_.DurationToCycles(thread->period())));
}

void RbsScheduler::Replenish(SimThread* thread, TimePoint now) {
  // Advance whole periods until `now` falls inside the current one.
  TimePoint start = thread->period_start();
  const Duration period = thread->period();
  if (now < start + period) {
    return;
  }
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
  if (Node* node = FindNode(thread)) {
    RearmReplenish(thread, *node);
  }
  Reindex(thread);
}

void RbsScheduler::OnTick(TimePoint now) {
  if (!indexing_on_) {
    // Scanning: the per-tick O(n) replenish sweep. With slab columns
    // the scan pre-filters on the deadline column — Replenish's own early-out
    // condition (now < period_start + period, i.e. now_ns < deadline_nanos) — so the
    // common not-due tick streams three small columns and touches no thread object.
    if (UseColumns()) {
      const int64_t now_ns = now.nanos();
      const size_t n = slots_.size();
      for (size_t i = 0; i < n; ++i) {
        const int32_t s = slots_[i];
        if (slabs_->policy(s) == SchedPolicy::kReservation && slabs_->granted_ppt(s) != 0 &&
            slabs_->deadline_nanos(s) <= now_ns) {
          Replenish(threads_[i], now);
        }
      }
      return;
    }
    for (SimThread* t : threads_) {
      if (HasReservation(t)) {
        Replenish(t, now);
      }
    }
    return;
  }
  if (UseColumns()) {
    // Indexed mode with full slab coverage: the deadline-column sweep replaces the
    // due-heap — one streaming pass over three small columns per tick instead of
    // two O(log n) heap sifts per thread-period. `threads_` order is admission
    // (seq) order — RemoveThread erases and AddThread appends with a fresh seq —
    // so the replenish order matches the due-heap path's seq sort exactly.
    const int64_t now_ns = now.nanos();
    const size_t n = slots_.size();
    for (size_t i = 0; i < n; ++i) {
      const int32_t s = slots_[i];
      if (slabs_->policy(s) == SchedPolicy::kReservation && slabs_->granted_ppt(s) != 0 &&
          slabs_->deadline_nanos(s) <= now_ns) {
        Replenish(threads_[i], now);
      }
    }
    return;
  }
  // Pop every due (and still-current) replenishment, then apply them in admission
  // order — the order the original per-tick scan over `threads_` replenished in, which
  // the deadline-miss callbacks can observe. `due_now_` is a reused member buffer so
  // the common tick allocates nothing.
  due_now_.clear();
  while (!due_.empty() && due_.top().due <= now) {
    const DueEntry entry = due_.top();
    due_.pop();
    const Node* node = FindNode(entry.thread);
    if (node == nullptr || node->replenish_gen != entry.gen) {
      continue;  // Stale: reservation changed or thread left since this was armed.
    }
    due_now_.push_back(entry);
  }
  std::sort(due_now_.begin(), due_now_.end(),
            [](const DueEntry& a, const DueEntry& b) { return a.seq < b.seq; });
  for (const DueEntry& entry : due_now_) {
    Replenish(entry.thread, now);
  }
}

void RbsScheduler::OnTicksSkipped(int64_t /*count*/, TimePoint now) {
  // Replenish is written to catch up across any number of elapsed periods, and the
  // deadline-miss check cannot fire while nothing is runnable, so one due-driven pass
  // at the final skipped tick reproduces `count` per-tick passes exactly.
  OnTick(now);
}

void RbsScheduler::OnWake(SimThread* thread, TimePoint /*now*/) { Reindex(thread); }

void RbsScheduler::OnBlock(SimThread* thread, TimePoint /*now*/) { Reindex(thread); }

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
  // The O(n) goodness scan. Reserved threads first. Rate-monotonic: highest goodness
  // (shortest period). EDF: earliest deadline, where a thread's deadline is the end of
  // its current period. Ties broken by scan position — arrival order — matching the
  // pick index's sequence-number tiebreak.
  //
  // Column variant: same scan, same order, same strict comparisons, reading the slab
  // columns (state, policy, ppt, budget, rank/deadline) instead of five scattered
  // SimThread cachelines per candidate.
  if (UseColumns()) {
    SimThread* best = nullptr;
    const size_t n = slots_.size();
    if (config_.order == DispatchOrder::kEarliestDeadlineFirst) {
      int64_t best_deadline = TimePoint::Max().nanos();
      for (size_t i = 0; i < n; ++i) {
        const int32_t s = slots_[i];
        if (slabs_->state(s) != ThreadState::kRunnable ||
            slabs_->policy(s) != SchedPolicy::kReservation || slabs_->granted_ppt(s) == 0 ||
            slabs_->budget(s) <= 0) {
          continue;
        }
        const int64_t deadline = slabs_->deadline_nanos(s);
        if (deadline < best_deadline) {
          best = threads_[i];
          best_deadline = deadline;
        }
      }
      return best;
    }
    int64_t best_rank = -1;  // Any reserved candidate (rank >= 0) beats "none".
    for (size_t i = 0; i < n; ++i) {
      const int32_t s = slots_[i];
      if (slabs_->state(s) != ThreadState::kRunnable ||
          slabs_->policy(s) != SchedPolicy::kReservation || slabs_->granted_ppt(s) == 0 ||
          slabs_->budget(s) <= 0) {
        continue;
      }
      const int64_t rank = slabs_->rm_rank(s);
      if (rank > best_rank) {
        best = threads_[i];
        best_rank = rank;
      }
    }
    return best;
  }
  SimThread* best = nullptr;
  if (config_.order == DispatchOrder::kEarliestDeadlineFirst) {
    TimePoint best_deadline = TimePoint::Max();
    for (SimThread* t : threads_) {
      if (!t->IsRunnable() || !HasReservation(t) || t->budget_remaining() <= 0) {
        continue;
      }
      const TimePoint deadline = t->period_start() + t->period();
      if (deadline < best_deadline) {
        best = t;
        best_deadline = deadline;
      }
    }
    return best;
  }
  int64_t best_goodness = 0;
  for (SimThread* t : threads_) {
    if (!t->IsRunnable()) {
      continue;
    }
    const int64_t g = Goodness(t);
    if (g > best_goodness) {
      best = t;
      best_goodness = g;
    }
  }
  return best_goodness >= kRmBase ? best : nullptr;
}

SimThread* RbsScheduler::PickReservedIndexed() {
  // Drain lazily deleted entries off the top; each is popped exactly once, so the
  // cost amortizes against the Reindex that staled it. The first current entry is
  // the (primary, seq) minimum over all current entries — identical to what the
  // ordered-set begin() returned.
  while (!pick_index_.empty()) {
    const PickKey top = pick_index_.front();
    if (PickEntryCurrent(top)) {
      // Index-integrity check: every mutation that can change eligibility must have
      // gone through a Reindex hook; a wrong entry here means a change bypassed them.
      RR_CHECK(top.thread->IsRunnable() && HasReservation(top.thread) &&
               top.thread->budget_remaining() > 0);
      return top.thread;
    }
    std::pop_heap(pick_index_.begin(), pick_index_.end(), std::greater<PickKey>{});
    pick_index_.pop_back();
  }
  return nullptr;
}

bool RbsScheduler::PickEntryCurrent(const PickKey& key) {
  if (key.slot != ThreadSlabs::kNoSlot) {
    // One dense word per slot instead of a pointer chase through the thread record.
    return pick_gen_by_slot_[static_cast<size_t>(key.slot)] == key.gen;
  }
  const Node* node = FindNode(key.thread);
  return node != nullptr && node->in_pick_index && node->pick_gen == key.gen;
}

SimThread* RbsScheduler::PickFallbackRoundRobin() {
  // No reserved thread can run: round-robin over the remaining runnables (non-reserved
  // threads, plus exhausted reserved threads when work-conserving). The cursor is
  // positional, so this path stays O(n) but is gated by
  // the occupancy counts in PickNext and only runs when it will find work. slots_ is
  // index-aligned with threads_, so the column variant's cursor arithmetic and scan
  // order are identical to the pointer scan's.
  const size_t n = threads_.size();
  if (UseColumns()) {
    for (size_t i = 0; i < n; ++i) {
      const size_t idx = (rr_cursor_ + i) % n;
      const int32_t s = slots_[idx];
      if (slabs_->state(s) != ThreadState::kRunnable) {
        continue;
      }
      const bool reserved =
          slabs_->policy(s) == SchedPolicy::kReservation && slabs_->granted_ppt(s) != 0;
      const bool exhausted_reserved = reserved && slabs_->budget(s) <= 0;
      if (exhausted_reserved && !config_.work_conserving) {
        continue;
      }
      if (!exhausted_reserved && reserved) {
        continue;  // Has budget; already considered above.
      }
      rr_cursor_ = (idx + 1) % n;
      return threads_[idx];
    }
    return nullptr;
  }
  for (size_t i = 0; i < n; ++i) {
    SimThread* t = threads_[(rr_cursor_ + i) % n];
    if (!t->IsRunnable()) {
      continue;
    }
    const bool exhausted_reserved = HasReservation(t) && t->budget_remaining() <= 0;
    if (exhausted_reserved && !config_.work_conserving) {
      continue;
    }
    if (!exhausted_reserved && HasReservation(t)) {
      continue;  // Has budget; already considered above.
    }
    rr_cursor_ = (rr_cursor_ + i + 1) % n;
    return t;
  }
  return nullptr;
}

SimThread* RbsScheduler::PickNext(TimePoint /*now*/) {
  SimThread* pick = indexing_on_ ? PickReservedIndexed() : PickReservedScan();
  if (pick != nullptr) {
    return pick;
  }
  if (indexing_on_) {
    // Secondary (occupancy) index: skip the positional fallback scan outright when no
    // round-robin candidate exists — the common case in a farm of blocked threads.
    // Reserved threads with budget are all in the (empty, or we would not be here)
    // pick index, so runnable_reserved_ now counts only exhausted ones.
    const bool have_unreserved = runnable_unreserved_ > 0;
    const bool have_exhausted = config_.work_conserving && runnable_reserved_ > 0;
    if (!have_unreserved && !have_exhausted) {
      return nullptr;
    }
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
    Reindex(thread);  // O(1) unless the budget just hit zero.
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
  RR_EXPECTS(thread->sched_slot() == nullptr || FindNode(thread) != nullptr);
  const bool was_reserved = HasReservation(thread);
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
  if (Node* node = FindNode(thread)) {
    // The due time (period_start + period) only moves on the fresh path; rearming on
    // proportion-only actuations would churn the due-heap once per controller run per
    // thread for nothing. A reservation appearing or vanishing (proportion zero <->
    // nonzero) changes whether a due entry should exist at all, so it rearms too.
    if (fresh || was_reserved != HasReservation(thread)) {
      RearmReplenish(thread, *node);
    }
    Reindex(thread);
  }
}

void RbsScheduler::ApplyReservations(const std::vector<ReservationUpdate>& batch,
                                     TimePoint now) {
  for (const ReservationUpdate& update : batch) {
    SetReservation(update.thread, update.proportion, update.period, now);
  }
}

Proportion RbsScheduler::TotalReserved() const {
  if (UseColumns()) {
    int32_t total_ppt = 0;
    for (const int32_t s : slots_) {
      if (slabs_->policy(s) == SchedPolicy::kReservation) {
        total_ppt += slabs_->granted_ppt(s);
      }
    }
    return Proportion::Ppt(total_ppt);
  }
  Proportion total = Proportion::Zero();
  for (const SimThread* t : threads_) {
    if (t->policy() == SchedPolicy::kReservation) {
      total += t->proportion();
    }
  }
  return total;
}

}  // namespace realrate
