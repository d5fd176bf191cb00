#include "sched/machine.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"
#include "util/log.h"

namespace realrate {

Machine::Machine(Simulator& sim, Scheduler& scheduler, ThreadRegistry& registry,
                 const MachineConfig& config)
    : Machine(sim, std::vector<Scheduler*>{&scheduler}, registry, config) {}

Machine::Machine(Simulator& sim, std::vector<Scheduler*> schedulers, ThreadRegistry& registry,
                 const MachineConfig& config)
    : sim_(sim), registry_(registry), config_(config), slabs_(registry.slabs()) {
  RR_EXPECTS(!schedulers.empty());
  RR_EXPECTS(static_cast<int>(schedulers.size()) == sim.num_cpus());
  RR_EXPECTS(config.dispatch_interval.IsPositive());
  static_assert(kRebalanceInterval.IsPositive() && kRebalanceThreshold > 0);
  cores_.resize(schedulers.size());
  for (size_t i = 0; i < schedulers.size(); ++i) {
    RR_EXPECTS(schedulers[i] != nullptr);
    cores_[i].scheduler = schedulers[i];
  }
  cycles_per_tick_ = sim_.cpu().DurationToCycles(config.dispatch_interval);
  RR_EXPECTS(cycles_per_tick_ > 0);
  RR_EXPECTS(config.host_threads >= 1);
  // One host thread per simulated core at most; a 1-core machine never forks.
  const int host = std::min(config.host_threads, num_cpus());
  if (host > 1) {
    engine_ = std::make_unique<ParallelEngine>(host);
    lanes_.resize(cores_.size());
  }
}

int Machine::host_threads() const {
  return engine_ != nullptr ? engine_->host_threads() : 1;
}

EventQueue::Callback Machine::TickCallback(CpuId core) {
  // Under the parallel engine, core 0's clock drives the whole round; sibling cores
  // keep their own callbacks, which fire only when RoundTick could not pop them
  // (an interleaved same-timestamp event) — and then run the exact sequential tick.
  if (engine_ != nullptr && core == 0) {
    return [this] { RoundTick(); };
  }
  return [this, core] { Tick(core); };
}

void Machine::Start() {
  RR_EXPECTS(!started_);
  started_ = true;
  accounted_through_ = sim_.Now();
  for (CpuId c = 0; c < num_cpus(); ++c) {
    CoreAt(c).next_tick_event =
        sim_.ScheduleAfter(config_.dispatch_interval, TickCallback(c));
  }
  if (num_cpus() > 1) {
    sim_.ScheduleAfter(kRebalanceInterval, [this] { Rebalance(); });
  }
}

CpuId Machine::LeastLoadedCore(const SimThread* placing) const {
  if (slabs_ != nullptr) {
    // O(cores) from the slabs' integer census. Loads are whole ppt, and the double
    // sums below differ from them by far less than their 1e-12 tolerance, so exact
    // integer comparisons make the same choice.
    CpuId best = 0;
    int64_t best_ppt = ReservedPptOn(0, placing);
    int best_count = ThreadCountOn(0, placing);
    for (CpuId c = 1; c < num_cpus(); ++c) {
      const int64_t ppt = ReservedPptOn(c, placing);
      const int count = ThreadCountOn(c, placing);
      if (ppt < best_ppt || (ppt == best_ppt && count < best_count)) {
        best = c;
        best_ppt = ppt;
        best_count = count;
      }
    }
    return best;
  }
  CpuId best = 0;
  double best_load = ReservedFractionOn(0, placing);
  int best_count = ThreadCountOn(0, placing);
  for (CpuId c = 1; c < num_cpus(); ++c) {
    const double load = ReservedFractionOn(c, placing);
    const int count = ThreadCountOn(c, placing);
    if (load < best_load - 1e-12 ||
        (load < best_load + 1e-12 && count < best_count)) {
      best = c;
      best_load = load;
      best_count = count;
    }
  }
  return best;
}

double Machine::ReservedFractionOn(CpuId core, const SimThread* excluding) const {
  double sum = 0.0;
  if (slabs_ != nullptr) {
    // Slot order == registry creation order, so this double sum adds the exact same
    // terms in the exact same order as the pointer sweep — bit-identical result.
    const ThreadId ex = excluding != nullptr ? excluding->id() : kInvalidThreadId;
    const int32_t n = slabs_->slot_count();
    for (int32_t s = 0; s < n; ++s) {
      if (s != ex && slabs_->cpu(s) == core && slabs_->state(s) != ThreadState::kExited &&
          slabs_->policy(s) == SchedPolicy::kReservation) {
        sum += Proportion::Ppt(slabs_->granted_ppt(s)).ToFraction();
      }
    }
    return sum;
  }
  for (const SimThread* t : registry_.All()) {
    if (t != excluding && t->cpu() == core && !t->HasExited() &&
        t->policy() == SchedPolicy::kReservation) {
      sum += t->proportion().ToFraction();
    }
  }
  return sum;
}

bool Machine::CountedOn(CpuId core, const SimThread* t) const {
  return t != nullptr && slabs_->cpu(t->id()) == core &&
         slabs_->state(t->id()) != ThreadState::kExited;
}

int64_t Machine::ReservedPptOn(CpuId core, const SimThread* excluding) const {
  const bool reserved = CountedOn(core, excluding) &&
                        slabs_->policy(excluding->id()) == SchedPolicy::kReservation;
  return slabs_->reserved_ppt_on(core) - (reserved ? slabs_->granted_ppt(excluding->id()) : 0);
}

int Machine::ThreadCountOn(CpuId core, const SimThread* excluding) const {
  if (slabs_ != nullptr) {
    const int64_t live = slabs_->live_on(core);
    return static_cast<int>(live - CountedOn(core, excluding));
  }
  int count = 0;
  for (const SimThread* t : registry_.All()) {
    if (t != excluding && t->cpu() == core && !t->HasExited()) {
      ++count;
    }
  }
  return count;
}

uint64_t Machine::SleepGenOf(ThreadId id) const {
  return static_cast<size_t>(id) < sleep_gen_dense_.size()
             ? sleep_gen_dense_[static_cast<size_t>(id)]
             : 0;
}

void Machine::SetSleepGen(ThreadId id, uint64_t gen) {
  if (static_cast<size_t>(id) >= sleep_gen_dense_.size()) {
    sleep_gen_dense_.resize(static_cast<size_t>(id) + 1, 0);
  }
  sleep_gen_dense_[static_cast<size_t>(id)] = gen;
}

void Machine::ClearSleepGen(ThreadId id) {
  if (static_cast<size_t>(id) < sleep_gen_dense_.size()) {
    sleep_gen_dense_[static_cast<size_t>(id)] = 0;
  }
}

void Machine::Attach(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(registry_.Find(thread->id()) == thread);  // Ids index the slab columns.
  RR_EXPECTS(!in_round_);  // Epoch contract: no attaches from inside a parallel round.
  InvalidateRoundGate();
  ResumeTicking();  // A newly attached thread is runnable: the idle span is over.
  // Exclude the thread itself from the load census: it is typically already in the
  // registry (with a default core-0 affinity) by the time it is attached.
  const CpuId core = LeastLoadedCore(thread);
  thread->set_cpu(core);
  CoreAt(core).scheduler->AddThread(thread);
}

void Machine::Migrate(SimThread* thread, CpuId core) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(core >= 0 && core < num_cpus());
  // Epoch contract: migrations happen between rounds (the rebalancer and the
  // controller both run as their own simulator events), never while per-core
  // dispatch loops are in flight — a mid-round move would hand a thread to a core
  // another host thread owns.
  RR_EXPECTS(!in_round_);
  const CpuId from = thread->cpu();
  if (from == core) {
    return;
  }
  RR_EXPECTS(thread->state() != ThreadState::kRunning);
  InvalidateRoundGate();
  // Settle catch-up before run-queue membership changes: the schedulers' bulk
  // OnTicksSkipped assumes a stable thread set across the skipped span.
  ResumeTicking();
  Core& old_core = CoreAt(from);
  old_core.scheduler->RemoveThread(thread);
  if (old_core.last_ran == thread) {
    old_core.last_ran = nullptr;  // Next pick on the old core is a context switch.
  }
  thread->set_cpu(core);
  CoreAt(core).scheduler->AddThread(thread);
  ++migrations_;
  if (migration_hook_) {
    migration_hook_(thread, from, core);
  }
  sim_.trace().Record(sim_.Now(), TraceKind::kMigrate, thread->id(), from, core);
}

void Machine::Attach(BoundedBuffer* queue) {
  RR_EXPECTS(queue != nullptr);
  queue->SetWakeFn([this](ThreadId id) { Wake(id); });
}

void Machine::Attach(SimMutex* mutex) {
  RR_EXPECTS(mutex != nullptr);
  mutex->SetWakeFn([this](ThreadId id) { Wake(id); });
}

void Machine::Attach(TtyPort* tty) {
  RR_EXPECTS(tty != nullptr);
  tty->SetWakeFn([this](ThreadId id) { Wake(id); });
}

void Machine::Wake(ThreadId thread_id) {
  // Slot == id: the state column answers the spurious-wake test without dragging
  // the cold thread record into cache. (Buffers wake every waiter on each
  // operation, so most wakes are spurious.)
  SimThread* thread = registry_.Find(thread_id);
  if (thread == nullptr || StateOf(thread_id, thread) != ThreadState::kBlocked) {
    return;  // Spurious or stale wake.
  }
  RR_EXPECTS(!in_round_);  // Gated rounds run only wake-free (round-local) work.
  InvalidateRoundGate();
  ResumeTicking();  // Before the transition: catch-up must see the idle-span state.
  thread->set_state(ThreadState::kRunnable);
  thread->set_last_wake_time(sim_.Now());
  thread->work().OnWake(sim_.Now());
  CoreAt(thread->cpu()).scheduler->OnWake(thread, sim_.Now());
  sim_.trace().Record(sim_.Now(), TraceKind::kWake, thread_id);
}

void Machine::SleepUntil(SimThread* thread, TimePoint wake_at) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(wake_at >= sim_.Now());
  RR_EXPECTS(!in_round_);  // In-round throttle sleeps are staged (see ApplyRunResult).
  InvalidateRoundGate();
  // Only a running/runnable thread can be put to sleep, so the machine cannot be
  // suspended here through the dispatch path — but a direct caller (tests) could add
  // a sleeper mid-suspension, which must re-arm the horizon. Resuming is the simple
  // exact answer: the next round re-suspends with the new sleeper accounted.
  ResumeTicking();
  thread->set_state(ThreadState::kSleeping);
  const uint64_t gen = next_generation_++;
  SetSleepGen(thread->id(), gen);
  PushSleeper(SleepEntry{wake_at, gen, thread->id()});
  CoreAt(thread->cpu()).scheduler->OnBlock(thread, sim_.Now());
}

void Machine::CancelSleep(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  if (thread->state() != ThreadState::kSleeping) {
    return;
  }
  RR_EXPECTS(!in_round_);
  InvalidateRoundGate();
  ResumeTicking();
  ClearSleepGen(thread->id());  // The heap entry becomes stale.
  thread->set_state(ThreadState::kRunnable);
  thread->set_last_wake_time(sim_.Now());
  thread->work().OnWake(sim_.Now());
  CoreAt(thread->cpu()).scheduler->OnWake(thread, sim_.Now());
  sim_.trace().Record(sim_.Now(), TraceKind::kWake, thread->id(), /*arg0=*/-2);
}

void Machine::StealCycles(CpuUse category, Cycles cycles, CpuId core) {
  RR_EXPECTS(cycles >= 0);
  RR_EXPECTS(!in_round_);  // Overhead charges land between rounds (timer, controller).
  if (config_.charge_overheads) {
    // The backlog must be absorbed by upcoming ticks, so a suspended machine resumes;
    // without backlog the charge is purely observational and needs no clock.
    ResumeTicking();
  }
  sim_.cpu(core).Charge(category, cycles);
  if (config_.charge_overheads) {
    CoreAt(core).stolen_backlog += cycles;
  }
}

void Machine::RunFor(Duration d) {
  sim_.RunFor(d);
  if (suspended_) {
    // Settle the elided span so post-run introspection (ticks, dispatches, idle
    // charges) reads as if every tick ran. A tick exactly at the end time would have
    // fired within RunUntil, hence inclusive.
    AccountSkippedTicks(sim_.Now(), /*inclusive=*/true);
  }
}

void Machine::SyncSkippedTicks(TimePoint now) {
  if (suspended_) {
    // Exclusive: an observer running at `now` precedes this timestamp's tick (ticks
    // are pushed one interval ahead, so they sort after any same-time event that was
    // scheduled earlier), and must not see its effects yet.
    AccountSkippedTicks(now, /*inclusive=*/false);
  }
}

void Machine::EpochFence(TimePoint now) {
  // Cross-machine mutation is only legal between dispatch rounds; a fence from
  // inside a fanned-out round would let another machine observe (or mutate) state
  // mid-round, breaking the share-nothing round contract.
  RR_EXPECTS(!in_round_);
  SyncSkippedTicks(now);
  ++epoch_fences_;
}

int64_t Machine::dispatches() const {
  int64_t total = 0;
  for (const Core& c : cores_) {
    total += c.dispatches;
  }
  return total;
}

int64_t Machine::context_switches() const {
  int64_t total = 0;
  for (const Core& c : cores_) {
    total += c.context_switches;
  }
  return total;
}

void Machine::PushSleeper(const SleepEntry& entry) {
  const int64_t interval = config_.dispatch_interval.nanos();
  const int64_t due_tick = entry.wake_at.nanos() / interval;
  if (sleep_wheel_cursor_ == kNoTick) {
    sleep_wheel_.resize(static_cast<size_t>(kSleepWheelTicks));
    sleep_wheel_cursor_ = sim_.Now().nanos() / interval;
  }
  // The cursor never exceeds floor(now / interval) and wake_at >= now, so due_tick
  // is never behind the cursor; a sleep past the window waits out its laps in its
  // bucket.
  sleep_wheel_[static_cast<size_t>(due_tick % kSleepWheelTicks)].push_back(entry);
  ++sleep_wheel_count_;
}

void Machine::WakeExpiredSleepers(TimePoint now) {
  // The global timer interrupt is serviced by the boot core; its cost lands there
  // (StealCycles' default core).
  bool any_expired = false;
  // Gather the due sleepers from every bucket the cursor passed since the last drain
  // (all of them after a long idle span), then sort the batch into (wake_at,
  // generation) order — the order a single heap would pop them in. Stale entries are
  // filtered below and have no effects, so only the live ordering matters.
  wake_batch_.clear();
  if (sleep_wheel_count_ > 0) {
    const int64_t interval = config_.dispatch_interval.nanos();
    const int64_t now_tick = now.nanos() / interval;
    const int64_t last =
        std::min(now_tick, sleep_wheel_cursor_ + kSleepWheelTicks - 1);
    for (int64_t t = sleep_wheel_cursor_; t <= last; ++t) {
      // Only entries at or before `now`: the rest belong to a later lap (or, in the
      // current tick's bucket, to later in this tick).
      auto& bucket = sleep_wheel_[static_cast<size_t>(t % kSleepWheelTicks)];
      for (size_t i = 0; i < bucket.size();) {
        if (bucket[i].wake_at <= now) {
          wake_batch_.push_back(bucket[i]);
          bucket[i] = bucket.back();
          bucket.pop_back();
          --sleep_wheel_count_;
        } else {
          ++i;
        }
      }
    }
  }
  if (sleep_wheel_cursor_ != kNoTick) {
    sleep_wheel_cursor_ =
        std::max(sleep_wheel_cursor_, now.nanos() / config_.dispatch_interval.nanos());
  }
  std::sort(wake_batch_.begin(), wake_batch_.end(),
            [](const SleepEntry& a, const SleepEntry& b) {
              if (a.wake_at != b.wake_at) {
                return a.wake_at < b.wake_at;
              }
              return a.generation < b.generation;
            });
  for (const SleepEntry& entry : wake_batch_) {
    if (SleepGenOf(entry.thread) != entry.generation) {
      continue;  // Stale entry: thread was re-slept or woken through another path.
    }
    ClearSleepGen(entry.thread);
    SimThread* thread = registry_.Find(entry.thread);
    if (thread == nullptr || StateOf(entry.thread, thread) != ThreadState::kSleeping) {
      continue;
    }
    any_expired = true;
    if (config_.charge_overheads) {
      StealCycles(CpuUse::kTimer, Cpu::kTimerExpiredCycles);
    }
    thread->set_state(ThreadState::kRunnable);
    thread->set_last_wake_time(now);
    thread->work().OnWake(now);
    CoreAt(thread->cpu()).scheduler->OnWake(thread, now);
    sim_.trace().Record(now, TraceKind::kWake, entry.thread, /*arg0=*/-1);
  }
  // The cached next-expiry means an interrupt that finds nothing expired does near-zero
  // work ("this routine typically runs in constant time").
  if (!any_expired && config_.charge_overheads) {
    StealCycles(CpuUse::kTimer, Cpu::kTimerIdleCycles);
  }
  if (any_expired) {
    InvalidateRoundGate();  // The runnable set grew; re-evaluate before forking.
  }
}

void Machine::Tick(CpuId core_id) { TickBody(core_id, sim_.Now()); }

void Machine::TickBody(CpuId core_id, TimePoint now) {
  Core& core = CoreAt(core_id);
  ++core.ticks;
  core.round_had_pick = false;
  accounted_through_ = now;

  if (core_id == 0) {
    WakeExpiredSleepers(now);
  }
  TickRest(core_id, now);
}

void Machine::TickRest(CpuId core_id, TimePoint now) {
  Core& core = CoreAt(core_id);
  core.scheduler->OnTick(now);
  RoundDispatch(core_id, now);
  if (checker_ != nullptr) {
    checker_->OnTickComplete(*this, core_id, now);
  }
  // The last core of the round decides whether the machine goes idle; everyone else
  // re-arms its clock (the suspension path cancels those if the round does suspend).
  if (core_id == num_cpus() - 1 && ShouldSuspend()) {
    Suspend();
    return;
  }
  core.next_tick_event =
      sim_.ScheduleAfter(config_.dispatch_interval, TickCallback(core_id));
}

void Machine::RecordPlanFailure() {
  plan_fail_valid_ = true;
  plan_fail_gate_epoch_ = gate_epoch_;
  plan_fail_queues_.clear();
  // Everything consulted so far: queues already in the claim table, plus the queues
  // the failing model listed (for a data-limited plan, the input whose refill would
  // make the plan succeed). A queue can appear in both; the duplicate check is
  // harmless and the vector stays small.
  for (const QueueClaim& claim : round_claims_) {
    plan_fail_queues_.emplace_back(claim.queue, claim.queue->change_epoch());
  }
  for (const RoundQueueOp& op : plan_ops_) {
    if (op.queue != nullptr) {
      plan_fail_queues_.emplace_back(op.queue, op.queue->change_epoch());
    }
  }
}

bool Machine::RoundPlanIsFeasible(TimePoint now) {
  round_claims_.clear();
  round_staged_.clear();
  // An all-hog admission stands until the runnable set changes: nothing in a round
  // can turn a hog into a queue-bound thread, and in-round throttles only shrink the
  // set.
  if (hogs_admitted_epoch_ == gate_epoch_) {
    return true;
  }
  // Fail-fast: the last failure stands while the runnable set and every consulted
  // queue's change epoch are unchanged — nothing that could flip the verdict has
  // moved. (A plan's byte bounds also depend on `now`, so a stale failure can in
  // principle outlive its cause on a machine whose queues go quiet; that only costs
  // parallelism — the sequential path is always correct — and any traffic on a
  // consulted queue re-opens the evaluation immediately.)
  if (plan_fail_valid_ && plan_fail_gate_epoch_ == gate_epoch_) {
    bool unchanged = true;
    for (const auto& [queue, epoch] : plan_fail_queues_) {
      if (queue->change_epoch() != epoch) {
        unchanged = false;
        break;
      }
    }
    if (unchanged) {
      return false;
    }
  }
  plan_fail_valid_ = false;
  const uint64_t stamp = ++plan_stamp_;

  // Classification sweep: every runnable thread must be a hog (full-tick
  // RoundLocalCycles) or produce a queue plan under its scheduler's cycle bound.
  // Claims aggregate per queue in sweep order; the single-pusher/single-popper rule
  // keeps each side-band FIFO's mid-round order equal to the sequential engine's.
  auto consider = [&](SimThread* t) -> bool {
    WorkModel& work = t->work();
    if (work.RoundLocalCycles(now) >= cycles_per_tick_) {
      return true;  // Hog: no queue ops, nothing to stage.
    }
    plan_ops_.clear();
    const Cycles bound = CoreAt(t->cpu()).scheduler->RoundCycleBound(t, cycles_per_tick_);
    if (bound <= 0 || !work.PlanRoundQueueOps(now, bound, &plan_ops_)) {
      RecordPlanFailure();
      return false;
    }
    for (const RoundQueueOp& op : plan_ops_) {
      RR_CHECK(op.queue != nullptr && op.push_bytes >= 0 && op.pop_bytes >= 0);
      if (op.queue->PlanMark(stamp, static_cast<int32_t>(round_claims_.size()))) {
        round_claims_.push_back(QueueClaim{op.queue, {}, {}, kInvalidThreadId,
                                           kInvalidThreadId});
      }
      QueueClaim& claim = round_claims_[static_cast<size_t>(op.queue->plan_slot())];
      if (op.push_bytes > 0) {
        if (claim.pusher != kInvalidThreadId && claim.pusher != t->id()) {
          RecordPlanFailure();
          return false;  // Second pusher: staged FIFO order would be ambiguous.
        }
        claim.pusher = t->id();
        claim.push.budget_bytes += op.push_bytes;
      }
      if (op.pop_bytes > 0) {
        if (claim.popper != kInvalidThreadId && claim.popper != t->id()) {
          RecordPlanFailure();
          return false;
        }
        claim.popper = t->id();
        claim.pop.budget_bytes += op.pop_bytes;
      }
    }
    round_staged_.emplace_back(t->cpu(), &work);
    return true;
  };

  bool ok = true;
  if (slabs_ != nullptr) {
    const int32_t n = slabs_->slot_count();
    for (int32_t s = 0; s < n && ok; ++s) {
      if (slabs_->state(s) == ThreadState::kRunnable) {
        ok = consider(registry_.All()[static_cast<size_t>(s)]);
      }
    }
  } else {
    for (SimThread* t : registry_.All()) {
      if (!t->HasExited() && t->state() == ThreadState::kRunnable) {
        if (!consider(t)) {
          ok = false;
          break;
        }
      }
    }
  }
  if (!ok) {
    return false;
  }

  // Feasibility: with at most one pusher and one popper per queue, total pushes
  // fitting the free space and total pops covered by the round-start fill mean no
  // interleaving — including the sequential one — can reach a full or empty edge:
  // every op this round succeeds with its full request, and no wake can fire.
  // A parked waiter would need exactly such a wake, so any waiter fails the gate.
  for (const QueueClaim& claim : round_claims_) {
    const BoundedBuffer* q = claim.queue;
    if (!q->waiting_producers().empty() || !q->waiting_consumers().empty() ||
        q->fill() + claim.push.budget_bytes > q->capacity() ||
        claim.pop.budget_bytes > q->fill()) {
      plan_ops_.clear();  // Claims alone key the failure.
      RecordPlanFailure();
      return false;
    }
  }
  if (round_staged_.empty()) {
    hogs_admitted_epoch_ = gate_epoch_;
  }
  return true;
}

void Machine::Emit(CpuId core, TimePoint t, TraceKind kind, ThreadId thread, int64_t arg0,
                   int64_t arg1) {
  if (in_round_) {
    if (sim_.trace().enabled()) {
      lanes_[static_cast<size_t>(core)].events.push_back(
          TraceEvent{t, kind, thread, arg0, arg1});
    }
    return;
  }
  sim_.trace().Record(t, kind, thread, arg0, arg1);
}

void Machine::RoundTick() {
  const TimePoint now = sim_.Now();
  const int n = num_cpus();
  // Claim the round: the sibling cores' tick events are contiguous at the queue
  // head whenever no other event shares this timestamp (same-time events scheduled
  // earlier carry smaller ids and fired before core 0's tick; events created from
  // here on carry larger ids). Each successful pop consumes the event without
  // running its callback — this round runs the tick instead.
  int popped = 0;  // Cores 1..popped had their tick events claimed.
  while (popped + 1 < n && sim_.PopExpected(CoreAt(popped + 1).next_tick_event, now)) {
    ++popped;
  }
  if (popped + 1 < n || checker_ != nullptr) {
    // Partial round (an interleaved same-timestamp event) or an installed invariant
    // oracle: run the claimed ticks inline, in core order — the exact interleave the
    // one-queue engine produces. Unclaimed cores' events fire on their own.
    for (CpuId c = 0; c <= popped; ++c) {
      TickBody(c, now);
    }
    return;
  }

  // Whole round in hand. The shared prologue is bit-identical to each core running
  // its own (nothing reads the counters or accounted_through_ mid-round), and the
  // timer service must precede the gate: expired sleepers grow the runnable set.
  for (CpuId c = 0; c < n; ++c) {
    Core& core = CoreAt(c);
    ++core.ticks;
    core.round_had_pick = false;
  }
  accounted_through_ = now;
  WakeExpiredSleepers(now);

  if (!RoundPlanIsFeasible(now)) {
    for (CpuId c = 0; c < n; ++c) {
      TickRest(c, now);
    }
    return;
  }
  // Install the pre-claimed stakes (none in an all-hog round; the claim table is
  // final — stake pointers stay put) and switch the planned models' cross-thread
  // side effects (side-band FIFO appends, shared sample sets) into staging mode,
  // core-major flush order.
  for (QueueClaim& claim : round_claims_) {
    claim.queue->InstallRoundStakes(claim.pusher != kInvalidThreadId ? &claim.push : nullptr,
                                    claim.popper != kInvalidThreadId ? &claim.pop : nullptr);
  }
  std::stable_sort(round_staged_.begin(), round_staged_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [core, model] : round_staged_) {
    model->BeginRoundStaging();
  }

  // Parallel epoch. The schedulers' tick work stays on the coordinator — it is the
  // one in-round path with cross-core effects (the replenisher's deadline-miss hook
  // records to the trace and adjusts controller state) — with its records staged
  // into each core's lane, exactly where the sequential engine would emit them.
  TraceRecorder& trace = sim_.trace();
  for (CpuId c = 0; c < n; ++c) {
    Lane& lane = lanes_[static_cast<size_t>(c)];
    lane.events.clear();
    lane.sleeps.clear();
    trace.SetStage(&lane.events);
    CoreAt(c).scheduler->OnTick(now);
  }
  trace.SetStage(nullptr);

  in_round_ = true;
  if (slabs_ != nullptr) {
    slabs_->set_shared_mode(true);  // Runnable-count bumps go RMW for the round.
  }
  engine_->RunRound(n, [this, now](int c) { RoundDispatch(static_cast<CpuId>(c), now); });
  if (slabs_ != nullptr) {
    slabs_->set_shared_mode(false);
  }
  in_round_ = false;
  ++parallel_rounds_;

  // Epoch barrier: drain the per-core lanes in ascending core order. The merged
  // record stream and the throttle-sleeps' generation order reproduce the sequential
  // engine's exactly (core 0's whole tick before core 1's).
  for (CpuId c = 0; c < n; ++c) {
    Lane& lane = lanes_[static_cast<size_t>(c)];
    for (const TraceEvent& event : lane.events) {
      trace.RecordEvent(event);
    }
    for (const Lane::StagedSleep& staged : lane.sleeps) {
      const uint64_t gen = next_generation_++;
      SetSleepGen(staged.thread->id(), gen);
      PushSleeper(SleepEntry{staged.wake_at, gen, staged.thread->id()});
    }
  }

  // Merge the round's queue effects: per-queue fill deltas, totals, and
  // change-epoch bumps settle to exactly the sequential end-of-round state; staged
  // side-band effects flush in core order. Nothing observes queue state mid-round
  // (the controller, the cluster fence, and the checker all run between rounds), so
  // settle order is free. Only a round that staked a model counts as a mailbox round.
  mailbox_rounds_ += round_staged_.empty() ? 0 : 1;
  for (QueueClaim& claim : round_claims_) {
    claim.queue->SettleRoundStakes();
  }
  for (const auto& [core, model] : round_staged_) {
    model->FlushRoundEffects();
  }

  // Re-arm / suspend in the sequential engine's event-id order: cores 0..n-2 re-arm
  // unconditionally; the last core decides idleness (Suspend cancels the fresh
  // re-arms and arms the horizon, exactly as it would have sequentially).
  for (CpuId c = 0; c < n - 1; ++c) {
    CoreAt(c).next_tick_event =
        sim_.ScheduleAfter(config_.dispatch_interval, TickCallback(c));
  }
  if (ShouldSuspend()) {
    Suspend();
    return;
  }
  CoreAt(n - 1).next_tick_event =
      sim_.ScheduleAfter(config_.dispatch_interval, TickCallback(n - 1));
}

void Machine::RoundDispatch(CpuId core_id, TimePoint now) {
  // Capacity of this tick, minus overhead backlog carried over (controller runs,
  // timer/dispatch costs that exceeded a previous tick).
  Core& core = CoreAt(core_id);
  Cycles cycles_left = cycles_per_tick_;
  const Cycles absorbed = std::min(core.stolen_backlog, cycles_left);
  cycles_left -= absorbed;
  core.stolen_backlog -= absorbed;
  DispatchLoop(core, core_id, now, cycles_left);
}

bool Machine::ShouldSuspend() const {
  if (!config_.idle_fast_forward || !started_) {
    return false;
  }
  for (const Core& c : cores_) {
    // Any dispatch this round, or pending overhead backlog, keeps the clocks running:
    // the cheap per-core flags gate the registry sweep below.
    if (c.round_had_pick || c.stolen_backlog > 0) {
      return false;
    }
  }
  // A runnable thread — including a reserved one waiting out an exhausted budget,
  // whose replenishment at a period boundary must be observed on time — means
  // upcoming ticks are not no-ops. The slabs maintain the runnable census
  // incrementally, collapsing the per-round registry sweep to one comparison.
  if (slabs_ != nullptr) {
    return slabs_->runnable_count() == 0;
  }
  for (const SimThread* t : registry_.All()) {
    if (!t->HasExited() && t->state() == ThreadState::kRunnable) {
      return false;
    }
  }
  return true;
}

void Machine::Suspend() {
  suspended_ = true;
  ++idle_suspensions_;
  for (Core& core : cores_) {
    if (core.next_tick_event != kInvalidEventId) {
      sim_.Cancel(core.next_tick_event);  // Bounded: Cancel rejects non-pending ids.
      core.next_tick_event = kInvalidEventId;
    }
  }
  ArmHorizon();
}

void Machine::ArmHorizon() {
  // Earliest live wake time in the wheel (stale entries skipped). The scan only runs
  // at suspension, never on the tick path.
  bool have_wake = false;
  TimePoint earliest_wake;
  if (sleep_wheel_count_ > 0) {
    for (const auto& bucket : sleep_wheel_) {
      for (const SleepEntry& entry : bucket) {
        if (SleepGenOf(entry.thread) != entry.generation) {
          continue;
        }
        if (!have_wake || entry.wake_at < earliest_wake) {
          have_wake = true;
          earliest_wake = entry.wake_at;
        }
      }
    }
  }
  if (!have_wake) {
    return;  // Fully quiescent: only an external stimulus can resume the machine.
  }
  // The tick that services a sleeper is the first grid point at or after its wake
  // time — exactly when a continuously ticking core 0 would have woken it. The grid
  // is anchored at the machine's Start time (accounted_through_ is always on it),
  // not at simulator time zero: a machine started off-grid still wakes on its own
  // tick boundaries.
  const int64_t interval = config_.dispatch_interval.nanos();
  const int64_t after = earliest_wake.nanos() - accounted_through_.nanos();
  // The dispatch path cannot leave a due sleeper behind (the round that slept it had
  // a pick, and its core-0 tick woke anything already expired), but SleepUntil's
  // contract allows wake_at == Now(): a sleeper due at or before the last tick is
  // serviced at the next one, exactly as on an eagerly ticking machine.
  const int64_t ticks_ahead = std::max<int64_t>(1, (after + interval - 1) / interval);
  const TimePoint horizon = accounted_through_ + config_.dispatch_interval * ticks_ahead;
  horizon_event_ = sim_.Resched(horizon_event_, horizon, [this] {
    horizon_event_ = kInvalidEventId;
    ResumeTicking();
  });
}

void Machine::AccountIdleTick(CpuId core_id) {
  // Mirrors Tick() for a tick that provably dispatches nothing: same counter bumps,
  // same charge order (timer interrupt, backlog absorption, dispatcher cost, idle).
  Core& core = CoreAt(core_id);
  Cpu& cpu = sim_.cpu(core_id);
  ++core.ticks;
  if (core_id == 0 && config_.charge_overheads) {
    cpu.Charge(CpuUse::kTimer, Cpu::kTimerIdleCycles);
    core.stolen_backlog += Cpu::kTimerIdleCycles;
  }
  Cycles cycles_left = cycles_per_tick_;
  const Cycles absorbed = std::min(core.stolen_backlog, cycles_left);
  cycles_left -= absorbed;
  core.stolen_backlog -= absorbed;
  ++core.dispatches;
  if (config_.charge_overheads) {
    const Cycles dispatch_cost = cpu.DispatchCostAt(dispatch_hz());
    cpu.Charge(CpuUse::kDispatch, dispatch_cost);
    cycles_left -= std::min(dispatch_cost, cycles_left);
  }
  if (cycles_left > 0) {
    cpu.Charge(CpuUse::kIdle, cycles_left);
  }
}

void Machine::AccountSkippedTicks(TimePoint upto, bool inclusive) {
  const Duration interval = config_.dispatch_interval;
  int64_t count = (upto - accounted_through_) / interval;
  if (count > 0 && !inclusive && accounted_through_ + interval * count == upto) {
    --count;  // A tick exactly at `upto` has not run yet from the observer's view.
  }
  if (count <= 0) {
    return;
  }
  const TimePoint last = accounted_through_ + interval * count;
  // Every skipped tick is identical (the suspension invariant guarantees zero
  // backlog, and the boot core's timer-idle charge is absorbed within its own tick
  // whenever it fits the tick capacity), so the span settles with O(cores)
  // multiplications. The degenerate sub-timer-cost tick capacity falls back to a
  // literal per-tick replay, where backlog genuinely carries across ticks.
  const bool steady = !config_.charge_overheads ||
                      Cpu::kTimerIdleCycles <= cycles_per_tick_;
  for (CpuId c = 0; c < num_cpus(); ++c) {
    if (!steady) {
      for (int64_t i = 0; i < count; ++i) {
        AccountIdleTick(c);
      }
    } else {
      Core& core = CoreAt(c);
      Cpu& cpu = sim_.cpu(c);
      core.ticks += count;
      core.dispatches += count;
      Cycles cycles_left = cycles_per_tick_;  // Per-tick remainder after overheads.
      if (config_.charge_overheads) {
        if (c == 0) {
          const Cycles timer = Cpu::kTimerIdleCycles;
          cpu.Charge(CpuUse::kTimer, timer * count);
          cycles_left -= timer;  // Absorbed from the same tick's capacity.
        }
        const Cycles dispatch_cost = cpu.DispatchCostAt(dispatch_hz());
        cpu.Charge(CpuUse::kDispatch, dispatch_cost * count);
        cycles_left -= std::min(dispatch_cost, cycles_left);
      }
      if (cycles_left > 0) {
        cpu.Charge(CpuUse::kIdle, cycles_left * count);
      }
    }
    // Bulk scheduler catch-up: replenishments (and any per-tick bookkeeping) the
    // skipped ticks would have applied, collapsed into one call at the final grid.
    CoreAt(c).scheduler->OnTicksSkipped(count, last);
  }
  accounted_through_ = last;
}

void Machine::ResumeTicking() {
  if (!suspended_) {
    return;
  }
  suspended_ = false;
  if (horizon_event_ != kInvalidEventId) {
    sim_.Cancel(horizon_event_);
    horizon_event_ = kInvalidEventId;
  }
  // Ticks strictly before now already "happened" (they were idle by construction);
  // the clocks restart at the next grid point — which is `now` itself when the
  // trigger lands exactly on the grid, matching a tick event that would have been
  // scheduled one interval earlier and popped after the currently running event.
  AccountSkippedTicks(sim_.Now(), /*inclusive=*/false);
  const TimePoint first_tick = accounted_through_ + config_.dispatch_interval;
  for (CpuId c = 0; c < num_cpus(); ++c) {
    CoreAt(c).next_tick_event = sim_.ScheduleAt(first_tick, TickCallback(c));
  }
}

void Machine::DispatchLoop(Core& core, CpuId core_id, TimePoint now, Cycles cycles_left) {
  Cpu& cpu = sim_.cpu(core_id);
  const Cycles dispatch_cost =
      config_.charge_overheads ? cpu.DispatchCostAt(dispatch_hz()) : 0;

  while (cycles_left > 0) {
    // schedule() runs at every dispatch point.
    ++core.dispatches;
    if (config_.charge_overheads) {
      cpu.Charge(CpuUse::kDispatch, dispatch_cost);
      cycles_left -= std::min(dispatch_cost, cycles_left);
      if (cycles_left == 0) {
        break;
      }
    }

    SimThread* pick = core.scheduler->PickNext(now);
    if (pick == nullptr) {
      cpu.Charge(CpuUse::kIdle, cycles_left);
      return;
    }
    core.round_had_pick = true;
    if (checker_ != nullptr) {
      checker_->OnPicked(*this, core_id, pick, now);
    }

    if (pick != core.last_ran) {
      ++core.context_switches;
      if (config_.charge_overheads) {
        const Cycles cs = Cpu::kContextSwitchCycles;
        cpu.Charge(CpuUse::kDispatch, cs);
        cycles_left -= std::min(cs, cycles_left);
        if (cycles_left == 0) {
          core.last_ran = pick;
          return;
        }
      }
      core.last_ran = pick;
    }

    const Cycles grant = core.scheduler->MaxGrant(pick, cycles_left);
    RR_CHECK(grant > 0);

    pick->set_state(ThreadState::kRunning);
    const RunResult result = pick->work().Run(now, grant);
    RR_CHECK(result.used >= 0 && result.used <= grant);
    // A work model that consumes nothing must not claim to still be runnable, or the
    // dispatch loop would spin forever.
    RR_CHECK(result.used > 0 || result.next != RunResult::Next::kRunnable);

    pick->OnRan(result.used);
    cpu.Charge(CpuUse::kUser, result.used);
    cycles_left -= result.used;
    core.scheduler->OnRan(pick, result.used, now);
    Emit(core_id, now, TraceKind::kDispatch, pick->id(), result.used);

    ApplyRunResult(core, core_id, pick, result, now);
  }
}

void Machine::ApplyRunResult(Core& core, CpuId core_id, SimThread* thread,
                             const RunResult& result, TimePoint now) {
  // Inside a parallel round the independence gate guarantees every slice stays
  // runnable (at most throttling afterwards) — anything else would be a cross-core
  // effect emitted from a worker thread.
  RR_CHECK(!in_round_ || result.next == RunResult::Next::kRunnable);
  switch (result.next) {
    case RunResult::Next::kRunnable:
      thread->set_state(ThreadState::kRunnable);
      break;
    case RunResult::Next::kBlocked:
      InvalidateRoundGate();
      thread->set_state(ThreadState::kBlocked);
      thread->OnBurstEnd();  // Ran-before-blocking measurement for interactive jobs.
      core.scheduler->OnBlock(thread, now);
      Emit(core_id, now, TraceKind::kBlock, thread->id(), result.block_tag);
      return;  // Throttling is irrelevant once off the run queue.
    case RunResult::Next::kSleeping:
      thread->set_state(ThreadState::kRunnable);  // SleepUntil flips it to kSleeping.
      thread->OnBurstEnd();
      SleepUntil(thread, std::max(result.wake_at, now));  // Notifies OnBlock itself.
      return;
    case RunResult::Next::kExited:
      InvalidateRoundGate();
      thread->set_state(ThreadState::kExited);
      core.scheduler->RemoveThread(thread);
      Emit(core_id, now, TraceKind::kExit, thread->id());
      if (core.last_ran == thread) {
        core.last_ran = nullptr;
      }
      return;
  }

  // Budget enforcement: "when a thread has used its allocation for its period, it is
  // put to sleep until its next period begins."
  if (const auto throttle_until = core.scheduler->ThrottleUntil(thread, now)) {
    Emit(core_id, now, TraceKind::kBudgetExhausted, thread->id(),
         thread->cycles_this_period());
    const TimePoint wake_at = std::max(*throttle_until, now);
    if (in_round_) {
      // Staged sleep: the state flip and run-queue exit are core-local and happen
      // now; the wheel insertion and generation assignment are cross-core state and
      // happen at the barrier, in core order — the order the sequential engine
      // issues generations in. (SleepUntil's ResumeTicking is a no-op here: the
      // machine cannot be suspended while a round is dispatching.)
      thread->set_state(ThreadState::kSleeping);
      core.scheduler->OnBlock(thread, now);
      lanes_[static_cast<size_t>(core_id)].sleeps.push_back(
          Lane::StagedSleep{thread, wake_at});
      return;
    }
    SleepUntil(thread, wake_at);  // Notifies OnBlock itself.
  }
}

void Machine::Rebalance() {
  // Deterministic greedy pass: while some core's reserved proportion exceeds the
  // over-subscription threshold, move its smallest reservation to the least-loaded
  // core — but only while each move strictly narrows the machine's load spread, so
  // the pass terminates and threads cannot ping-pong.
  const int n = num_cpus();
  for (int moves = 0; moves < 2 * n; ++moves) {
    CpuId hi = 0;
    CpuId lo = 0;
    double hi_load = -1.0;
    double lo_load = 0.0;
    for (CpuId c = 0; c < n; ++c) {
      const double load = ReservedFractionOn(c);
      if (load > hi_load + 1e-12) {
        hi = c;
        hi_load = load;
      }
      if (c == 0 || load < lo_load - 1e-12) {
        lo = c;
        lo_load = load;
      }
    }
    if (hi_load <= kRebalanceThreshold || hi == lo) {
      break;
    }
    // Smallest positive reservation on the over-subscribed core (tie: lowest id).
    // The rebalancer selects and moves slots (slot order == id order), reading the
    // cpu/state/policy/ppt columns; only the chosen victim's record is touched.
    SimThread* victim = nullptr;
    double victim_fraction = 0.0;
    if (slabs_ != nullptr) {
      const int32_t slots = slabs_->slot_count();
      for (int32_t s = 0; s < slots; ++s) {
        const ThreadState state = slabs_->state(s);
        if (slabs_->cpu(s) != hi || state == ThreadState::kExited ||
            state == ThreadState::kRunning ||
            slabs_->policy(s) != SchedPolicy::kReservation) {
          continue;
        }
        const double f = Proportion::Ppt(slabs_->granted_ppt(s)).ToFraction();
        if (f <= 0.0) {
          continue;
        }
        if (victim == nullptr || f < victim_fraction - 1e-12) {
          victim = registry_.All()[static_cast<size_t>(s)];
          victim_fraction = f;
        }
      }
    } else {
      for (SimThread* t : registry_.All()) {
        if (t->cpu() != hi || t->HasExited() || t->policy() != SchedPolicy::kReservation ||
            t->state() == ThreadState::kRunning) {
          continue;
        }
        const double f = t->proportion().ToFraction();
        if (f <= 0.0) {
          continue;
        }
        if (victim == nullptr || f < victim_fraction - 1e-12) {
          victim = t;
          victim_fraction = f;
        }
      }
    }
    // Accept the move only if it strictly narrows the spread AND leaves the
    // destination under the over-subscription threshold — shifting a reservation
    // onto a nearly-full core would break the headroom admission control
    // guaranteed there.
    if (victim == nullptr || lo_load + victim_fraction >= hi_load - 1e-12 ||
        lo_load + victim_fraction > kRebalanceThreshold + 1e-12) {
      break;
    }
    Migrate(victim, lo);
  }
  sim_.ScheduleAfter(kRebalanceInterval, [this] { Rebalance(); });
}

}  // namespace realrate
