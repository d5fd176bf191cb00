#include "core/controller.h"

#include <algorithm>
#include <cmath>

#include "core/pressure.h"
#include "util/assert.h"
#include "util/log.h"

namespace realrate {

FeedbackAllocator::FeedbackAllocator(Machine& machine, RbsScheduler& rbs, QueueRegistry& queues,
                                     const ControllerConfig& config)
    : machine_(machine),
      rbs_(rbs),
      queues_(queues),
      config_(config),
      overload_threshold_(kOverloadThreshold),
      ledger_(machine.num_cpus()),
      core_requests_(static_cast<size_t>(machine.num_cpus())),
      core_slots_(static_cast<size_t>(machine.num_cpus())),
      core_grants_(static_cast<size_t>(machine.num_cpus())) {
  RR_EXPECTS(config.interval.IsPositive());
  static_assert(kOverloadThreshold > 0 && kOverloadThreshold <= 1.0);
  static_assert(kMinOverloadThreshold > 0 && kMinOverloadThreshold <= kOverloadThreshold);
  slabs_ = machine_.registry().slabs();
  WireScheduler(rbs_);
  // Keep the ledger registered with where each fixed reservation's proportion is
  // drawn from: the rebalancer (and PlaceAndAdmit's steering) migrate threads
  // between cores without going through this controller.
  machine_.SetMigrationHook([this](SimThread* thread, CpuId from, CpuId to) {
    const Controlled* c = Find(thread->id());
    if (c != nullptr && IsFixedClass(c->cls)) {
      ledger_.MoveFixed(from, to, c->fixed_ppt);
    }
  });
}

FeedbackAllocator::~FeedbackAllocator() { machine_.SetMigrationHook(nullptr); }

void FeedbackAllocator::WireScheduler(RbsScheduler& rbs) {
  rbs.SetDeadlineMissFn([this](SimThread* t, Cycles shortfall, TimePoint now) {
    OnDeadlineMiss(t, shortfall, now);
  });
  schedulers_.push_back(&rbs);
}

RbsScheduler& FeedbackAllocator::SchedulerFor(const SimThread* thread) {
  return SchedulerForCore(thread->cpu());
}

RbsScheduler& FeedbackAllocator::SchedulerForCore(CpuId core) {
  const auto index = static_cast<size_t>(core);  // A negative core wraps and fails too.
  RR_EXPECTS(index < schedulers_.size());  // Every core is wired (WireScheduler).
  return *schedulers_[index];
}

void FeedbackAllocator::Start() {
  RR_EXPECTS(!started_);
  started_ = true;
  ScheduleNext();
}

// Reschedules from inside each invocation so interval changes take effect; the
// recursion is flattened by the event queue.
void FeedbackAllocator::ScheduleNext() {
  machine_.sim().ScheduleAfter(config_.interval, [this] {
    RunOnce(machine_.sim().Now());
    ScheduleNext();
  });
}

FeedbackAllocator::Controlled* FeedbackAllocator::Find(ThreadId id) {
  const auto it = slot_of_.find(id);
  return it == slot_of_.end() ? nullptr : &controlled_[it->second];
}

const FeedbackAllocator::Controlled* FeedbackAllocator::Find(ThreadId id) const {
  const auto it = slot_of_.find(id);
  return it == slot_of_.end() ? nullptr : &controlled_[it->second];
}

void FeedbackAllocator::RegisterControlled(Controlled&& c) {
  RR_EXPECTS(c.thread->bound_slabs() == slabs_);  // A thread of this machine's registry.
  c.id = c.thread->id();
  if (IsFixedClass(c.cls)) {
    ledger_.AddFixed(c.thread->cpu(), c.fixed_ppt);
  }
  slot_of_[c.id] = controlled_.size();
  controlled_.push_back(std::move(c));
}

void FeedbackAllocator::RemoveSlot(size_t slot) {
  RR_EXPECTS(slot < controlled_.size());
  Controlled& victim = controlled_[slot];
  if (IsFixedClass(victim.cls)) {
    ledger_.RemoveFixed(victim.thread->cpu(), victim.fixed_ppt);
  }
  slot_of_.erase(victim.id);
  const size_t last = controlled_.size() - 1;
  if (slot != last) {
    controlled_[slot] = std::move(controlled_[last]);
    slot_of_[controlled_[slot].id] = slot;
  }
  controlled_.pop_back();
}

void FeedbackAllocator::RebuildSlotIndex() {
  slot_of_.clear();
  for (size_t i = 0; i < controlled_.size(); ++i) {
    slot_of_[controlled_[i].id] = i;
  }
}

bool FeedbackAllocator::ExitedOf(const Controlled& c) const {
  // state(kExited) ⇔ SimThread::HasExited(): the state column is a write-through
  // mirror of the object's run state.
  return slabs_ != nullptr ? slabs_->state(c.id) == ThreadState::kExited
                           : c.thread->HasExited();
}

CpuId FeedbackAllocator::CpuOf(const Controlled& c) const {
  return slabs_ != nullptr ? slabs_->cpu(c.id) : c.thread->cpu();
}

double FeedbackAllocator::ImportanceOf(const Controlled& c) const {
  return slabs_ != nullptr ? slabs_->importance(c.id) : c.thread->importance();
}

// Order-preserving, unlike Remove's last-slot swap: within one run the surviving
// threads keep their squish enumeration order, exactly as the original erase did.
void FeedbackAllocator::DropExited() {
  bool any = false;
  for (const Controlled& c : controlled_) {
    if (ExitedOf(c)) {
      any = true;
      break;
    }
  }
  if (!any) {
    return;
  }
  for (const Controlled& c : controlled_) {
    if (ExitedOf(c) && IsFixedClass(c.cls)) {
      ledger_.RemoveFixed(CpuOf(c), c.fixed_ppt);
    }
  }
  controlled_.erase(std::remove_if(controlled_.begin(), controlled_.end(),
                                   [this](const Controlled& c) { return ExitedOf(c); }),
                    controlled_.end());
  RebuildSlotIndex();
}

double FeedbackAllocator::FixedReservedSum() const { return ledger_.FixedFractionTotal(); }

double FeedbackAllocator::FixedReservedSumOnCore(CpuId core) const {
  return ledger_.FixedFractionOn(core);
}

// Real-time admission on an SMP machine: admit against the thread's own core's fixed
// budget; only when that core would reject the request and the core with the most
// unreserved fixed capacity would accept it is the thread migrated there first — a
// reservation that fits where the thread already sits never moves. On one core this
// is the paper's admission test unchanged. O(cores): the per-core sums are ledger
// reads, not sweeps over the controlled set.
bool FeedbackAllocator::PlaceAndAdmit(SimThread* thread, double request) {
  if (machine_.num_cpus() > 1) {
    CpuId best = thread->cpu();
    double best_fixed = ledger_.FixedFractionOn(best);
    for (CpuId c = 0; c < machine_.num_cpus(); ++c) {
      const double fixed = ledger_.FixedFractionOn(c);
      if (fixed < best_fixed - 1e-12) {
        best = c;
        best_fixed = fixed;
      }
    }
    if (best != thread->cpu() && AdmitRealTime(best_fixed, request, overload_threshold_) &&
        !AdmitRealTime(ledger_.FixedFractionOn(thread->cpu()), request, overload_threshold_)) {
      machine_.Migrate(thread, best);
    }
  }
  return AdmitRealTime(ledger_.FixedFractionOn(thread->cpu()), request, overload_threshold_);
}

bool FeedbackAllocator::AddRealTime(SimThread* thread, Proportion proportion, Duration period) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(Find(thread->id()) == nullptr);
  const double request = proportion.ToFraction();
  if (!PlaceAndAdmit(thread, request)) {
    machine_.sim().trace().Record(machine_.sim().Now(), TraceKind::kRejected, thread->id(),
                                  proportion.ppt());
    return false;
  }
  Controlled c;
  c.thread = thread;
  c.cls = ThreadClass::kRealTime;
  c.period = period;
  c.fixed_ppt = proportion.ppt();
  c.desired = c.granted = request;
  thread->set_thread_class(ThreadClass::kRealTime);
  SchedulerFor(thread).SetReservation(thread, proportion, period, machine_.sim().Now());
  machine_.sim().trace().Record(machine_.sim().Now(), TraceKind::kAdmitted, thread->id(),
                                proportion.ppt());
  RegisterControlled(std::move(c));
  return true;
}

bool FeedbackAllocator::AddAperiodicRealTime(SimThread* thread, Proportion proportion) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(Find(thread->id()) == nullptr);
  const double request = proportion.ToFraction();
  if (!PlaceAndAdmit(thread, request)) {
    machine_.sim().trace().Record(machine_.sim().Now(), TraceKind::kRejected, thread->id(),
                                  proportion.ppt());
    return false;
  }
  Controlled c;
  c.thread = thread;
  c.cls = ThreadClass::kAperiodicRealTime;
  // "Without a progress metric with which to assess the application's needs, our
  // prototype uses a default value of 30 milliseconds."
  c.period = kDefaultPeriod;
  c.fixed_ppt = proportion.ppt();
  c.desired = c.granted = request;
  thread->set_thread_class(ThreadClass::kAperiodicRealTime);
  SchedulerFor(thread).SetReservation(thread, proportion, c.period, machine_.sim().Now());
  machine_.sim().trace().Record(machine_.sim().Now(), TraceKind::kAdmitted, thread->id(),
                                proportion.ppt());
  RegisterControlled(std::move(c));
  return true;
}

void FeedbackAllocator::AddRealRate(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(Find(thread->id()) == nullptr);
  // A real-rate thread without a registered progress metric is a contract violation:
  // the caller should have used AddMiscellaneous.
  RR_EXPECTS(queues_.HasMetrics(thread->id()));
  Controlled c;
  c.thread = thread;
  c.cls = ThreadClass::kRealRate;
  c.period = kDefaultPeriod;
  c.estimator = std::make_unique<ProportionEstimator>(config_.estimator);
  if (config_.enable_period_estimation) {
    c.period_estimator = std::make_unique<PeriodEstimator>();
    const size_t window =
        std::max<size_t>(2, static_cast<size_t>(c.period / config_.interval));
    c.fill_window = std::make_unique<RingBuffer<double>>(window);
    c.last_period_mark = machine_.sim().Now();
  }
  c.desired = c.granted = ProportionEstimator::kMinFraction;
  thread->set_thread_class(ThreadClass::kRealRate);
  Actuate(c, c.granted, machine_.sim().Now());
  RegisterControlled(std::move(c));
}

void FeedbackAllocator::AddMiscellaneous(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(Find(thread->id()) == nullptr);
  Controlled c;
  c.thread = thread;
  c.cls = ThreadClass::kMiscellaneous;
  c.period = kDefaultPeriod;
  c.estimator = std::make_unique<ProportionEstimator>(config_.estimator);
  c.desired = c.granted = ProportionEstimator::kMinFraction;
  thread->set_thread_class(ThreadClass::kMiscellaneous);
  Actuate(c, c.granted, machine_.sim().Now());
  RegisterControlled(std::move(c));
}

void FeedbackAllocator::AddInteractive(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  RR_EXPECTS(Find(thread->id()) == nullptr);
  Controlled c;
  c.thread = thread;
  c.cls = ThreadClass::kInteractive;
  // "Interactive jobs have specific requirements (periods relative to human
  // perception)": a small fixed period; the proportion floats with measured bursts.
  c.period = kInteractivePeriod;
  c.desired = c.granted = ProportionEstimator::kMinFraction;
  thread->set_thread_class(ThreadClass::kInteractive);
  Actuate(c, c.granted, machine_.sim().Now());
  RegisterControlled(std::move(c));
}

void FeedbackAllocator::Remove(SimThread* thread) {
  RR_EXPECTS(thread != nullptr);
  const auto it = slot_of_.find(thread->id());
  if (it == slot_of_.end()) {
    return;
  }
  RemoveSlot(it->second);
}

void FeedbackAllocator::EnsureQualityWindow(Controlled& c) {
  if (c.quality_window == nullptr) {
    c.quality_window = std::make_unique<SaturationWindow>(
        static_cast<size_t>(10 * kQualityPatience));
  }
}

// ---------------------------------------------------------------------------
// The staged pipeline.
// ---------------------------------------------------------------------------

void FeedbackAllocator::RunOnce(TimePoint now) {
  ++invocations_;
  // If the machine's dispatch clocks are idle-suspended, settle the elided ticks
  // before sampling or actuating: budgets and period phases must read exactly as a
  // continuously ticking machine would present them at this instant.
  machine_.SyncSkippedTicks(now);
  const double dt = config_.interval.ToSeconds();

  DropExited();
  SampleStage();
  EstimateStage(dt, now);
  ResolveStage();
  ActuateStage(now);

  // The controller's own cost (Fig. 5): fixed + per-controlled-thread.
  if (config_.charge_overhead) {
    machine_.StealCycles(CpuUse::kController,
                         machine_.sim().cpu().ControllerCost(static_cast<int>(controlled_.size())));
  }

  if (post_run_hook_) {
    post_run_hook_(now);
  }
}

void FeedbackAllocator::SampleStage() {
  // CPU each thread actually used last interval, as a fraction of the interval.
  const auto interval_cycles =
      static_cast<double>(machine_.sim().cpu().DurationToCycles(config_.interval));
  for (Controlled& c : controlled_) {
    c.tick_used_fraction = static_cast<double>(c.thread->TakeWindowCycles()) / interval_cycles;
    c.tick_clean = false;
    if (c.cls != ThreadClass::kRealRate) {
      continue;
    }
    // Dirty-set check: if the linkage list and every linked queue kept their change
    // epochs since the previous tick, the pressure (a pure function of queue fills)
    // is provably the cached value — skip the sweep.
    if (c.linkage_cache.IsClean(queues_, c.id)) {
      c.tick_clean = true;
      ++clean_samples_;
      c.last_pressure = c.linkage_cache.pressure;
    } else {
      ++dirty_samples_;
      const auto& linkages = c.linkage_cache.Refresh(queues_, c.id);
      c.last_pressure = RawPressure(linkages);
      c.linkage_cache.pressure = c.last_pressure;
    }
  }
}

void FeedbackAllocator::EstimateStage(double dt, TimePoint now) {
  for (Controlled& c : controlled_) {
    switch (c.cls) {
      case ThreadClass::kRealTime:
      case ThreadClass::kAperiodicRealTime:
        // Reservations are not adapted: "the controller sets the thread proportion
        // and period to the specified amount and does not modify them in practice."
        c.desired = c.FixedFraction();
        c.last_pressure = 0.0;
        continue;
      case ThreadClass::kRealRate:
        break;  // Pressure sampled by SampleStage.
      case ThreadClass::kMiscellaneous:
        // Constant pressure "to allocate more CPU to a miscellaneous thread, until it
        // is either satisfied or the CPU becomes oversubscribed." Satisfaction shows
        // up as under-use, which the estimator's reclaim branch converts into a
        // reduction.
        c.last_pressure = kMiscPressure;
        break;
      case ThreadClass::kInteractive: {
        // Proportion from the measured run-before-block burst: enough allocation to
        // serve one typical burst within one (small) period, plus headroom. A thread
        // saturating its grant (backlogged, never blocking) has no measurable burst
        // yet, so its allocation doubles until it starts blocking between events —
        // the bootstrap of the "time they typically run before blocking" measurement.
        const auto period_cycles =
            static_cast<double>(machine_.sim().cpu().DurationToCycles(c.period));
        double need =
            kInteractiveHeadroom * c.thread->burst_ewma_cycles() / period_cycles;
        const bool saturated =
            c.granted > 0 && c.tick_used_fraction >= 0.9 * c.granted;
        if (saturated) {
          need = std::max(need, c.granted * 2.0);
        }
        c.desired = std::clamp(need, ProportionEstimator::kMinFraction,
                               ProportionEstimator::kMaxFraction);
        c.last_pressure = 0.0;
        continue;
      }
    }
    c.desired = c.estimator->Step(c.last_pressure, c.tick_used_fraction, c.granted, dt);

    if (c.cls == ThreadClass::kRealRate && config_.enable_period_estimation) {
      // SampleStage validated (or refreshed) the cache this tick; no need to
      // re-resolve the registry's per-thread index.
      const auto& linkages = *c.linkage_cache.linkages;
      if (!linkages.empty()) {
        c.fill_window->Push(linkages.front().queue->FillFraction());
      }
      if (now - c.last_period_mark >= c.period) {
        ApplyPeriodEstimation(c, now);
        c.last_period_mark = now;
      }
    }
  }
}

void FeedbackAllocator::ResolveStage() {
  // One pass buckets every adaptive thread's request under its core, preserving the
  // controlled-set enumeration order within each core, which the squish arithmetic
  // depends on.
  const int cores = machine_.num_cpus();
  for (int core = 0; core < cores; ++core) {
    core_requests_[static_cast<size_t>(core)].clear();
    core_slots_[static_cast<size_t>(core)].clear();
    core_grants_[static_cast<size_t>(core)].clear();
    ledger_.SetGranted(core, 0.0);
  }
  for (size_t slot = 0; slot < controlled_.size(); ++slot) {
    Controlled& c = controlled_[slot];
    if (!IsAdaptiveClass(c.cls)) {
      continue;
    }
    // Column reads: cpu and importance stream from the slabs across the whole
    // controlled set instead of touching each SimThread.
    const auto core = static_cast<size_t>(CpuOf(c));
    core_requests_[core].push_back(
        {c.id, c.desired, ImportanceOf(c), ProportionEstimator::kMinFraction});
    core_slots_[core].push_back(slot);
  }

  // Fixed reservations are untouchable; the adaptive classes on each core share what
  // remains of that core's budget. The squish math is the paper's uniprocessor logic
  // applied within one core's overload threshold; cross-core balancing is the
  // Machine's rebalancer's job, not the squisher's.
  bool any_overload = false;
  for (CpuId core = 0; core < cores; ++core) {
    const auto& requests = core_requests_[static_cast<size_t>(core)];
    if (requests.empty()) {
      continue;
    }
    const double available = overload_threshold_ - ledger_.FixedFractionOn(core);
    double desired_sum = 0.0;
    for (const SquishRequest& r : requests) {
      desired_sum += r.desired;
    }
    const std::vector<SquishResult> grants = Squish(requests, std::max(0.0, available));
    if (desired_sum > available) {
      any_overload = true;
    }
    RR_CHECK(grants.size() == core_slots_[static_cast<size_t>(core)].size());
    double granted_sum = 0.0;
    for (const SquishResult& g : grants) {
      core_grants_[static_cast<size_t>(core)].push_back(g.granted);
      granted_sum += g.granted;
    }
    ledger_.SetGranted(core, granted_sum);
  }
  if (any_overload) {
    ++squish_events_;
  }
}

void FeedbackAllocator::ActuateStage(TimePoint now) {
  const int cores = machine_.num_cpus();
  for (CpuId core = 0; core < cores; ++core) {
    const auto& slots = core_slots_[static_cast<size_t>(core)];
    const auto& grants = core_grants_[static_cast<size_t>(core)];
    batch_.clear();
    for (size_t i = 0; i < slots.size(); ++i) {
      StageGrant(controlled_[slots[i]], grants[i]);
    }
    // One batched call per core instead of one scheduler call per changed thread
    // (each update still pays its own O(log n) index maintenance inside).
    ApplyBatch(SchedulerForCore(core), now);
  }

  // Post-grant quality audit: saturation evidence is judged against this tick's
  // resolved grants.
  for (Controlled& c : controlled_) {
    QualityAudit(c, now);
  }
}

BoundedBuffer* FeedbackAllocator::GatherSaturation(Controlled& c) {
  // Only reached on dirty ticks, where SampleStage just refreshed the cache:
  // reuse its validated linkage reference instead of re-resolving the registry.
  const auto& linkages = *c.linkage_cache.linkages;
  c.last_full_hits.resize(linkages.size(), 0);
  c.last_empty_hits.resize(linkages.size(), 0);
  BoundedBuffer* saturated = nullptr;
  BoundedBuffer* static_saturated = nullptr;
  for (size_t i = 0; i < linkages.size(); ++i) {
    const QueueLinkage& l = linkages[i];
    const bool full_hit = l.queue->full_hits() > c.last_full_hits[i];
    const bool empty_hit = l.queue->empty_hits() > c.last_empty_hits[i];
    c.last_full_hits[i] = l.queue->full_hits();
    c.last_empty_hits[i] = l.queue->empty_hits();
    // A consumer that cannot keep up sees its input pinned full (or its upstream
    // producer bouncing off a full queue); a producer that cannot keep up sees its
    // output pinned empty (or its downstream consumer finding nothing).
    const bool fill_starved = FillStarved(l, kQualityFillExtreme);
    const bool starved =
        fill_starved || (l.role == QueueRole::kConsumer ? full_hit : empty_hit);
    if (starved && saturated == nullptr) {
      saturated = l.queue;
    }
    if (fill_starved && static_saturated == nullptr) {
      static_saturated = l.queue;
    }
  }
  // Cache the fill-only verdict: on a clean tick the hit deltas are zero by
  // definition, so this is exactly what the full sweep would conclude.
  c.linkage_cache.static_saturated = static_saturated;
  return saturated;
}

void FeedbackAllocator::QualityAudit(Controlled& c, TimePoint now) {
  if (c.cls != ThreadClass::kRealRate) {
    return;
  }
  EnsureQualityWindow(c);

  BoundedBuffer* saturated = nullptr;
  if (c.tick_clean) {
    saturated = c.linkage_cache.static_saturated;
  } else {
    saturated = GatherSaturation(c);
  }

  // A thread can only be starved by the CPU if its allocation is the limiting factor:
  // it was squished below its desire, or its desire is pinned at the ceiling. Without
  // this gate, routine queue-drain events in healthy pipelines would look like
  // starvation.
  const bool allocation_limited = c.granted < c.desired - 1e-9 ||
                                  c.desired >= ProportionEstimator::kMaxFraction - 1e-9;
  c.quality_window->Push((allocation_limited && saturated != nullptr) ? 1 : 0);

  if (c.quality_window->evidence() >= kQualityPatience && saturated != nullptr) {
    c.quality_window->Clear();
    ++quality_exceptions_;
    machine_.sim().trace().Record(now, TraceKind::kQualityException, c.thread->id(),
                                  saturated->id());
    if (quality_fn_) {
      quality_fn_(QualityException{now, c.thread, saturated});
    }
  }
}

void FeedbackAllocator::ApplyPeriodEstimation(Controlled& c, TimePoint now) {
  // Fill swing over the last period's worth of samples.
  double lo = 1.0;
  double hi = 0.0;
  for (size_t i = 0; i < c.fill_window->size(); ++i) {
    lo = std::min(lo, (*c.fill_window)[i]);
    hi = std::max(hi, (*c.fill_window)[i]);
  }
  if (c.fill_window->size() >= 2) {
    c.period_estimator->ObserveFillSwing(std::max(0.0, hi - lo));
  }
  const Duration proposed = c.period_estimator->Propose(c.period, c.granted);
  if (proposed != c.period) {
    c.period = proposed;
    const size_t window =
        std::max<size_t>(2, static_cast<size_t>(c.period / config_.interval));
    c.fill_window = std::make_unique<RingBuffer<double>>(window);
    Actuate(c, c.granted, now);
  }
}

void FeedbackAllocator::Actuate(Controlled& c, double fraction, TimePoint now) {
  batch_.clear();
  StageGrant(c, fraction);
  ApplyBatch(SchedulerFor(c.thread), now);
}

void FeedbackAllocator::StageGrant(Controlled& c, double fraction) {
  const Proportion p = Proportion::FromFraction(fraction);
  c.granted = fraction;
  if (c.thread->policy() == SchedPolicy::kReservation && c.thread->proportion() == p &&
      c.thread->period() == c.period) {
    return;  // No change; avoid perturbing the budget.
  }
  batch_.push_back({c.thread, p, c.period});
}

void FeedbackAllocator::ApplyBatch(RbsScheduler& scheduler, TimePoint now) {
  if (batch_.empty()) {
    return;
  }
  scheduler.ApplyReservations(batch_, now);
  for (const ReservationUpdate& u : batch_) {
    machine_.sim().trace().Record(now, TraceKind::kAllocationSet, u.thread->id(),
                                  u.proportion.ppt(), u.period.nanos());
    // A thread sleeping out an exhausted budget deserves to run again if the
    // controller just raised its allocation.
    if (u.thread->state() == ThreadState::kSleeping && u.thread->budget_remaining() > 0) {
      machine_.CancelSleep(u.thread);
    }
  }
}

double FeedbackAllocator::DesiredFraction(ThreadId id) const {
  const Controlled* c = Find(id);
  return c != nullptr ? c->desired : 0.0;
}

double FeedbackAllocator::GrantedFraction(ThreadId id) const {
  const Controlled* c = Find(id);
  return c != nullptr ? c->granted : 0.0;
}

double FeedbackAllocator::LastPressure(ThreadId id) const {
  const Controlled* c = Find(id);
  return c != nullptr ? c->last_pressure : 0.0;
}

Duration FeedbackAllocator::PeriodOf(ThreadId id) const {
  const Controlled* c = Find(id);
  return c != nullptr ? c->period : Duration::Zero();
}

std::optional<ThreadClass> FeedbackAllocator::ClassOf(ThreadId id) const {
  const Controlled* c = Find(id);
  if (c == nullptr) {
    return std::nullopt;
  }
  return c->cls;
}

void FeedbackAllocator::OnDeadlineMiss(SimThread* thread, Cycles shortfall, TimePoint now) {
  machine_.sim().trace().Record(now, TraceKind::kDeadlineMiss, thread->id(), shortfall);
  // "If the RBS is missing deadlines, it notifies the controller which can increase
  // the amount of spare capacity by reducing the admission threshold."
  overload_threshold_ = std::max(kMinOverloadThreshold, overload_threshold_ - kAdmissionBackoff);
}

}  // namespace realrate
