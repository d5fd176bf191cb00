// RBS scheduler + Machine behaviour: proportion enforcement, rate-monotonic goodness,
// budget exhaustion/replenishment, reservation updates, deadline misses; and the
// indexed run queue checked against a fresh scan under randomized hook sequences.
#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "task/registry.h"
#include "util/rng.h"
#include "workloads/misc_work.h"

namespace realrate {
namespace {

class RbsRig {
 public:
  explicit RbsRig(RbsConfig rbs_config = RbsConfig{}, bool charge_overheads = false)
      : rbs_(sim_.cpu(), rbs_config),
        machine_(sim_, rbs_, threads_,
                 MachineConfig{.dispatch_interval = Duration::Millis(1),
                               .charge_overheads = charge_overheads}) {}

  SimThread* SpawnHog(const std::string& name) {
    SimThread* t = threads_.Create(name, std::make_unique<CpuHogWork>());
    machine_.Attach(t);
    return t;
  }

  void Reserve(SimThread* t, int ppt, Duration period) {
    rbs_.SetReservation(t, Proportion::Ppt(ppt), period, sim_.Now());
  }

  double CpuShare(SimThread* t, Duration elapsed) const {
    return static_cast<double>(t->total_cycles()) /
           static_cast<double>(sim_.cpu().DurationToCycles(elapsed));
  }

  Simulator sim_;
  ThreadRegistry threads_;
  RbsScheduler rbs_;
  Machine machine_;
};

TEST(RbsSchedulerTest, SingleReservationEnforcedNotWorkConserving) {
  RbsRig rig;
  SimThread* hog = rig.SpawnHog("hog");
  rig.Reserve(hog, 300, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  // Non-work-conserving: even alone, the hog gets only its 30% reservation.
  EXPECT_NEAR(rig.CpuShare(hog, Duration::Seconds(1)), 0.30, 0.01);
}

TEST(RbsSchedulerTest, WorkConservingModeGivesIdleCapacityAway) {
  RbsRig rig(RbsConfig{.work_conserving = true});
  SimThread* hog = rig.SpawnHog("hog");
  rig.Reserve(hog, 200, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_GT(rig.CpuShare(hog, Duration::Seconds(1)), 0.95);
}

TEST(RbsSchedulerTest, TwoReservationsSplitProportionally) {
  RbsRig rig;
  SimThread* a = rig.SpawnHog("a");
  SimThread* b = rig.SpawnHog("b");
  rig.Reserve(a, 300, Duration::Millis(10));
  rig.Reserve(b, 600, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_NEAR(rig.CpuShare(a, Duration::Seconds(1)), 0.30, 0.01);
  EXPECT_NEAR(rig.CpuShare(b, Duration::Seconds(1)), 0.60, 0.01);
}

TEST(RbsSchedulerTest, FinerGrainControl60To40) {
  // The paper's fine-grain control example: "assigning 60% of the CPU to thread X and
  // 40% to thread Y."
  RbsRig rig;
  SimThread* x = rig.SpawnHog("x");
  SimThread* y = rig.SpawnHog("y");
  rig.Reserve(x, 600, Duration::Millis(20));
  rig.Reserve(y, 400, Duration::Millis(20));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(2));
  EXPECT_NEAR(rig.CpuShare(x, Duration::Seconds(2)), 0.60, 0.01);
  EXPECT_NEAR(rig.CpuShare(y, Duration::Seconds(2)), 0.40, 0.01);
}

TEST(RbsSchedulerTest, UnreservedRunsOnlyInSlack) {
  RbsRig rig;
  SimThread* reserved = rig.SpawnHog("reserved");
  SimThread* background = rig.SpawnHog("background");
  rig.Reserve(reserved, 500, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_NEAR(rig.CpuShare(reserved, Duration::Seconds(1)), 0.50, 0.01);
  EXPECT_NEAR(rig.CpuShare(background, Duration::Seconds(1)), 0.50, 0.01);
}

TEST(RbsSchedulerTest, GoodnessIsRateMonotonic) {
  RbsRig rig;
  SimThread* fast = rig.SpawnHog("fast");
  SimThread* slow = rig.SpawnHog("slow");
  rig.Reserve(fast, 100, Duration::Millis(5));
  rig.Reserve(slow, 100, Duration::Millis(50));
  EXPECT_GT(rig.rbs_.Goodness(fast), rig.rbs_.Goodness(slow));
  EXPECT_GT(rig.rbs_.Goodness(slow), 0);
}

TEST(RbsSchedulerTest, GoodnessZeroWhenBudgetExhausted) {
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 100, Duration::Millis(10));
  t->set_budget_remaining(0);
  EXPECT_EQ(rig.rbs_.Goodness(t), 0);
}

TEST(RbsSchedulerTest, ReservedOutranksUnreserved) {
  RbsRig rig;
  SimThread* reserved = rig.SpawnHog("reserved");
  SimThread* plain = rig.SpawnHog("plain");
  rig.Reserve(reserved, 10, Duration::Millis(10));
  EXPECT_GT(rig.rbs_.Goodness(reserved), rig.rbs_.Goodness(plain));
}

TEST(RbsSchedulerTest, BudgetExhaustionTracedAndSleeps) {
  RbsRig rig;
  rig.sim_.trace().SetEnabled(true);
  SimThread* hog = rig.SpawnHog("hog");
  rig.Reserve(hog, 100, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Millis(100));
  // 10 periods in 100 ms: the budget exhausts each period and the thread sleeps.
  EXPECT_GE(rig.sim_.trace().Count(TraceKind::kBudgetExhausted, hog->id()), 8);
  EXPECT_GE(rig.sim_.trace().Count(TraceKind::kWake, hog->id()), 8);
}

TEST(RbsSchedulerTest, PeriodBudgetComputation) {
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 250, Duration::Millis(40));
  // 25% of 40 ms at 400 MHz = 4,000,000 cycles.
  EXPECT_EQ(rig.rbs_.PeriodBudget(t), 4'000'000);
}

TEST(RbsSchedulerTest, SetReservationProportionOnlyKeepsPeriodPhase) {
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 200, Duration::Millis(10));
  const TimePoint phase = t->period_start();
  // Simulate consuming 700k of the 800k budget.
  t->OnRan(700'000);
  rig.rbs_.OnRan(t, 700'000, rig.sim_.Now());
  EXPECT_EQ(t->budget_remaining(), 100'000);
  // Raise proportion mid-period: phase must not restart; the remaining budget becomes
  // the full new budget (400 ppt of 10 ms = 1.6M cycles) minus the 700k consumed.
  rig.rbs_.SetReservation(t, Proportion::Ppt(400), Duration::Millis(10), rig.sim_.Now());
  EXPECT_EQ(t->period_start(), phase);
  EXPECT_EQ(t->budget_remaining(), 900'000);
}

TEST(RbsSchedulerTest, RepeatedReservationUpdatesAreBudgetNeutral) {
  // An oscillating controller flipping the proportion up and down within one period
  // must not mint extra budget.
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 200, Duration::Millis(10));
  for (int i = 0; i < 100; ++i) {
    rig.rbs_.SetReservation(t, Proportion::Ppt(i % 2 == 0 ? 100 : 200), Duration::Millis(10),
                            rig.sim_.Now());
  }
  EXPECT_EQ(t->budget_remaining(), rig.rbs_.PeriodBudget(t));  // 200 ppt, nothing used.
}

TEST(RbsSchedulerTest, SetReservationPeriodChangeRestartsPhase) {
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 200, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Millis(5));
  rig.rbs_.SetReservation(t, Proportion::Ppt(200), Duration::Millis(20), rig.sim_.Now());
  EXPECT_EQ(t->period_start(), rig.sim_.Now());
  EXPECT_EQ(t->budget_remaining(), rig.rbs_.PeriodBudget(t));
}

TEST(RbsSchedulerTest, LoweringProportionClampsBudgetAtZero) {
  RbsRig rig;
  SimThread* t = rig.SpawnHog("t");
  rig.Reserve(t, 400, Duration::Millis(10));
  // Consume 500k cycles, more than the whole budget at the lowered proportion
  // (100 ppt of 10 ms = 400k): the remaining budget clamps to zero.
  t->OnRan(500'000);
  rig.rbs_.OnRan(t, 500'000, rig.sim_.Now());
  rig.rbs_.SetReservation(t, Proportion::Ppt(100), Duration::Millis(10), rig.sim_.Now());
  EXPECT_EQ(t->budget_remaining(), 0);
}

TEST(RbsSchedulerTest, TotalReservedSums) {
  RbsRig rig;
  SimThread* a = rig.SpawnHog("a");
  SimThread* b = rig.SpawnHog("b");
  rig.Reserve(a, 300, Duration::Millis(10));
  rig.Reserve(b, 150, Duration::Millis(20));
  EXPECT_EQ(rig.rbs_.TotalReserved().ppt(), 450);
}

TEST(RbsSchedulerTest, OversubscriptionCausesDeadlineMisses) {
  RbsRig rig;
  SimThread* a = rig.SpawnHog("a");
  SimThread* b = rig.SpawnHog("b");
  // 70% + 70% = 140%: someone must miss every period.
  rig.Reserve(a, 700, Duration::Millis(10));
  rig.Reserve(b, 700, Duration::Millis(10));
  int64_t miss_count = 0;
  rig.rbs_.SetDeadlineMissFn(
      [&](SimThread*, Cycles shortfall, TimePoint) {
        ++miss_count;
        EXPECT_GT(shortfall, 0);
      });
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_GT(miss_count, 50);
  EXPECT_GT(a->deadline_misses() + b->deadline_misses(), 50);
}

TEST(RbsSchedulerTest, NoMissesWhenFeasible) {
  RbsRig rig;
  SimThread* a = rig.SpawnHog("a");
  SimThread* b = rig.SpawnHog("b");
  rig.Reserve(a, 400, Duration::Millis(10));
  rig.Reserve(b, 400, Duration::Millis(10));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_EQ(a->deadline_misses(), 0);
  EXPECT_EQ(b->deadline_misses(), 0);
}

TEST(RbsSchedulerTest, ShortPeriodThreadMeetsTightDeadlines) {
  // A 5 ms period isochronous-style reservation coexisting with a long-period one.
  RbsRig rig;
  SimThread* iso = rig.SpawnHog("iso");
  SimThread* bulk = rig.SpawnHog("bulk");
  rig.Reserve(iso, 200, Duration::Millis(5));
  rig.Reserve(bulk, 700, Duration::Millis(100));
  rig.machine_.Start();
  rig.sim_.RunFor(Duration::Seconds(1));
  EXPECT_EQ(iso->deadline_misses(), 0);
  EXPECT_NEAR(rig.CpuShare(iso, Duration::Seconds(1)), 0.20, 0.01);
  EXPECT_NEAR(rig.CpuShare(bulk, Duration::Seconds(1)), 0.70, 0.02);
}

// ---------------------------------------------------------------------------
// The indexed run queue under randomized hook sequences. Two cores' schedulers
// hold at least 96 threads each, so the pick index is on throughout. The test
// drives the hooks the Machine drives — wake, block, run, throttle, tick — plus
// SetReservation (proportion, rank and period changes, a few zero proportions),
// RemoveThread and Migrate (remove from one core, admit on the other), with
// periods drawn from a small set so equal keys tie. At every pick the index's
// choice must equal a fresh scan in admission order; at every tick the deadline
// misses must be exactly the due, short-changed threads, in admission order.
// ---------------------------------------------------------------------------

class RbsIndexedRunQueueTest
    : public ::testing::TestWithParam<std::tuple<DispatchOrder, bool /*slabs*/>> {};

bool Eligible(const SimThread* t) {
  return t->IsRunnable() && t->policy() == SchedPolicy::kReservation &&
         !t->proportion().IsZero() && t->budget_remaining() > 0;
}

// The reference pick: strict comparisons in admission order, so the earliest-admitted
// thread wins ties.
const SimThread* ScanBest(const RbsScheduler& rbs) {
  const bool edf = rbs.config().order == DispatchOrder::kEarliestDeadlineFirst;
  const SimThread* best = nullptr;
  auto deadline = [](const SimThread* t) { return t->period_start() + t->period(); };
  for (const SimThread* t : rbs.threads()) {
    if (!Eligible(t)) {
      continue;
    }
    if (best == nullptr || (edf ? deadline(t) < deadline(best)
                                : PeriodRank(t->period()) > PeriodRank(best->period()))) {
      best = t;
    }
  }
  return best;
}

TEST_P(RbsIndexedRunQueueTest, IndexPickEqualsAdmissionOrderScan) {
  const auto [order, use_slabs] = GetParam();
  Simulator sim(CpuConfig{}, 2);
  ThreadRegistry registry(use_slabs);
  std::vector<std::unique_ptr<RbsScheduler>> cores;
  for (CpuId c = 0; c < 2; ++c) {
    cores.push_back(std::make_unique<RbsScheduler>(sim.cpu(c), RbsConfig{.order = order}));
  }
  std::vector<const SimThread*> misses;
  for (auto& rbs : cores) {
    rbs->SetDeadlineMissFn([&misses](SimThread* t, Cycles shortfall, TimePoint) {
      EXPECT_GT(shortfall, 0);
      misses.push_back(t);
    });
  }
  constexpr Duration kPeriods[] = {Duration::Millis(5), Duration::Millis(10),
                                   Duration::Millis(10), Duration::Millis(20)};
  Rng rng(2025);
  TimePoint now = TimePoint::Origin();
  auto core_of = [&](const SimThread* t) -> RbsScheduler& {
    return *cores[static_cast<size_t>(t->cpu())];
  };
  auto reserve = [&](SimThread* t) {
    const int ppt = rng.NextBounded(16) == 0 ? 0 : 5 + static_cast<int>(rng.NextBounded(60));
    core_of(t).SetReservation(t, Proportion::Ppt(ppt), kPeriods[rng.NextBounded(4)], now);
  };
  std::vector<SimThread*> all;
  for (int i = 0; i < 2 * 130; ++i) {
    SimThread* t = registry.Create("t" + std::to_string(i), std::make_unique<CpuHogWork>());
    t->set_cpu(static_cast<CpuId>(i % 2));
    core_of(t).AddThread(t);
    reserve(t);
    all.push_back(t);
  }

  int64_t picks_checked = 0;
  int64_t ties_seen = 0;
  int64_t misses_checked = 0;
  for (int step = 0; step < 40'000; ++step) {
    SimThread* t = all[rng.NextBounded(all.size())];
    RbsScheduler& home = core_of(t);
    switch (rng.NextBounded(10)) {
      case 0:  // Wake a blocked or sleeping thread.
        if (!t->IsRunnable()) {
          t->set_state(ThreadState::kRunnable);
          t->set_last_wake_time(now);
          home.OnWake(t, now);
        }
        break;
      case 1:  // Block a runnable one.
        if (t->IsRunnable()) {
          t->set_state(rng.NextBool(0.5) ? ThreadState::kBlocked : ThreadState::kSleeping);
          home.OnBlock(t, now);
        }
        break;
      case 2:  // New proportion, rank or period.
        reserve(t);
        break;
      case 3: {  // Migrate from the fuller core, or leave and re-enter the same one.
        const size_t here = home.threads().size();
        const size_t there = cores[t->cpu() == 0 ? 1 : 0]->threads().size();
        home.RemoveThread(t);
        ASSERT_EQ(t->sched_slot(), SimThread::kNoSchedSlot);
        if (here > there && there < 140) {
          t->set_cpu(t->cpu() == 0 ? 1 : 0);
        }
        core_of(t).AddThread(t);
        break;
      }
      case 4: {  // Time passes; every core ticks.
        now += Duration::Micros(100 + static_cast<int64_t>(rng.NextBounded(3000)));
        for (auto& rbs : cores) {
          std::vector<const SimThread*> expected;
          for (const SimThread* u : rbs->threads()) {
            const bool due = u->policy() == SchedPolicy::kReservation &&
                             !u->proportion().IsZero() &&
                             now >= u->period_start() + u->period();
            if (due && u->IsRunnable() && u->last_wake_time() <= u->period_start() &&
                u->cycles_this_period() < u->period_entitlement()) {
              expected.push_back(u);
            }
          }
          misses.clear();
          rbs->OnTick(now);
          ASSERT_EQ(misses, expected) << "step " << step;
          misses_checked += static_cast<int64_t>(expected.size());
          for (const SimThread* u : rbs->threads()) {
            if (u->policy() == SchedPolicy::kReservation && !u->proportion().IsZero()) {
              ASSERT_LT(now, u->period_start() + u->period()) << u->name() << " not replenished";
            }
          }
        }
        break;
      }
      default: {  // Dispatch on one core: the index's pick against the scan.
        RbsScheduler& rbs = *cores[rng.NextBounded(2)];
        ASSERT_TRUE(rbs.indexing_active());
        const SimThread* best = ScanBest(rbs);
        SimThread* pick = rbs.PickNext(now);
        if (best != nullptr) {
          ASSERT_EQ(pick, best) << "step " << step << ": picked "
                                << (pick ? pick->name() : "none") << ", scan says "
                                << best->name();
          ++picks_checked;
          ties_seen += std::count_if(rbs.threads().begin(), rbs.threads().end(),
                                     [&](const SimThread* u) {
                                       return u != best && Eligible(u) &&
                                              u->period() == best->period() &&
                                              (order == DispatchOrder::kRateMonotonic ||
                                               u->period_start() == best->period_start());
                                     }) > 0;
        } else if (pick != nullptr) {
          ASSERT_FALSE(Eligible(pick));
        }
        if (pick == nullptr) {
          break;
        }
        pick->set_state(ThreadState::kRunning);
        const Cycles used = rbs.MaxGrant(pick, 1 + static_cast<Cycles>(rng.NextBounded(300'000)));
        pick->OnRan(used);
        rbs.OnRan(pick, used, now);
        pick->set_state(ThreadState::kRunnable);
        if (rbs.ThrottleUntil(pick, now).has_value()) {
          pick->set_state(ThreadState::kSleeping);
          rbs.OnBlock(pick, now);
        }
        break;
      }
    }
  }
  EXPECT_GT(picks_checked, 5'000);
  EXPECT_GT(ties_seen, 200);  // Equal keys: the position tie-break decided.
  EXPECT_GT(misses_checked, 100);
  for (auto& rbs : cores) {
    EXPECT_TRUE(rbs->indexing_active());
    EXPECT_GE(rbs->threads().size(), 96u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndLayouts, RbsIndexedRunQueueTest,
    ::testing::Combine(::testing::Values(DispatchOrder::kRateMonotonic,
                                         DispatchOrder::kEarliestDeadlineFirst),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == DispatchOrder::kRateMonotonic ? "Rm"
                                                                                  : "Edf") +
             (std::get<1>(info.param) ? "Slabs" : "NoSlabs");
    });

}  // namespace
}  // namespace realrate
