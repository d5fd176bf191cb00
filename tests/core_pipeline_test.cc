// Unit coverage for the control plane's staged-pipeline building blocks: the
// BudgetLedger's incrementally maintained per-core sums, the SaturationWindow's O(1)
// evidence count, and the dirty-set sampler's LinkageCache epoch logic. The
// integration-level guarantees (pipeline ≡ reference sweep on live machines) live in
// core_controller_test.cc, golden_trace_test.cc, and the fuzz battery.
#include <gtest/gtest.h>

#include "core/budget_ledger.h"
#include "core/control_pipeline.h"
#include "core/pressure.h"
#include "queue/registry.h"

namespace realrate {
namespace {

TEST(BudgetLedgerTest, TracksFixedSumsPerCoreAndMachineWide) {
  BudgetLedger ledger(4);
  EXPECT_EQ(ledger.num_cores(), 4);
  ledger.AddFixed(0, 300);
  ledger.AddFixed(0, 150);
  ledger.AddFixed(2, 450);
  EXPECT_EQ(ledger.fixed_ppt_on(0), 450);
  EXPECT_EQ(ledger.fixed_ppt_on(1), 0);
  EXPECT_EQ(ledger.fixed_ppt_on(2), 450);
  EXPECT_EQ(ledger.fixed_ppt_total(), 900);
  EXPECT_DOUBLE_EQ(ledger.FixedFractionOn(0), 0.45);
  EXPECT_DOUBLE_EQ(ledger.FixedFractionTotal(), 0.9);

  ledger.RemoveFixed(0, 150);
  EXPECT_EQ(ledger.fixed_ppt_on(0), 300);
  EXPECT_EQ(ledger.fixed_ppt_total(), 750);
}

TEST(BudgetLedgerTest, MoveReHomesOneReservation) {
  BudgetLedger ledger(2);
  ledger.AddFixed(0, 200);
  ledger.MoveFixed(0, 1, 200);
  EXPECT_EQ(ledger.fixed_ppt_on(0), 0);
  EXPECT_EQ(ledger.fixed_ppt_on(1), 200);
  EXPECT_EQ(ledger.fixed_ppt_total(), 200);
  // Same-core moves are no-ops.
  ledger.MoveFixed(1, 1, 200);
  EXPECT_EQ(ledger.fixed_ppt_on(1), 200);
}

TEST(BudgetLedgerTest, SparePptClampsEachCoreAtZero) {
  // Mid-squish (or after an admission backoff) fixed + granted can transiently
  // exceed the threshold. "Negative spare" is not a routing signal: the clamped
  // contract says an over-subscribed core simply has nothing to give.
  BudgetLedger ledger(2);
  ledger.AddFixed(0, 800);
  ledger.SetGranted(0, 0.3);  // 0.8 + 0.3 = 1.1 > any threshold.
  EXPECT_DOUBLE_EQ(ledger.GrantedFractionOn(0), 0.3);
  // The untouched core keeps its full head-room, and the machine-wide sum is the
  // clamped per-core sum — the over-subscription does not bleed into it.
  EXPECT_EQ(ledger.SparePpt(950), 950);
  // Draining the over-subscription restores spare continuously from zero.
  ledger.SetGranted(0, 0.1);
  EXPECT_EQ(ledger.SparePpt(950), 50 + 950);
  ledger.SetGranted(0, 0.0);
  EXPECT_EQ(ledger.SparePpt(950), 150 + 950);
}

TEST(BudgetLedgerTest, SparePptIsMeasuredAgainstTheGivenThreshold) {
  BudgetLedger ledger(2);
  EXPECT_EQ(ledger.SparePpt(950), 2 * 950);
  ledger.AddFixed(0, 600);
  ledger.SetGranted(1, 0.2);
  EXPECT_EQ(ledger.SparePpt(950), 350 + 750);
  // A backed-off admission threshold re-levels every core (and core 0 clamps
  // at the lower ceiling).
  EXPECT_EQ(ledger.SparePpt(500), 0 + 300);
}

TEST(BudgetLedgerTest, SparePptQuantizesEachCoresGrantedSum) {
  // The granted sum of a core is rounded to ppt once, as actuation rounds one
  // grant: two 0.6 ppt grants summed on a core are 1.2 ppt -> 1, not 1 + 1.
  BudgetLedger ledger(1);
  ledger.SetGranted(0, 0.0006 + 0.0006);
  EXPECT_EQ(ledger.SparePpt(950), 949);
  ledger.SetGranted(0, 0.0018);  // Rounded to the nearest ppt.
  EXPECT_EQ(ledger.SparePpt(950), 948);
}

TEST(BudgetLedgerTest, ZeroPptRoundTripsAndSameCoreMovesAreNoOps) {
  BudgetLedger ledger(3);
  ledger.AddFixed(1, 250);
  ledger.SetGranted(1, 0.2);
  const int64_t fixed = ledger.fixed_ppt_on(1);
  const int64_t total = ledger.fixed_ppt_total();
  const int64_t spare = ledger.SparePpt(950);
  // Zero-ppt add/remove round trips (a zero-proportion reservation's lifecycle).
  ledger.AddFixed(1, 0);
  ledger.RemoveFixed(1, 0);
  ledger.AddFixed(2, 0);
  ledger.RemoveFixed(2, 0);
  // Same-core "migrations" (the rebalancer picking the core a thread is on).
  ledger.MoveFixed(1, 1, 250);
  ledger.MoveFixed(0, 0, 0);
  EXPECT_EQ(ledger.fixed_ppt_on(1), fixed);
  EXPECT_EQ(ledger.fixed_ppt_total(), total);
  EXPECT_EQ(ledger.SparePpt(950), spare);
}

TEST(BudgetLedgerTest, MigrationStormAgreesWithReferenceScan) {
  // A deterministic storm of add/remove/move/grant ops, mirrored into a naive
  // per-core model. The incremental fixed sums, and the clamped spare head-room
  // under a moving threshold, must agree with the reference after every op — the
  // same property the controller's shadow mode asserts against
  // FixedPptOnCoreScan on live machines, here across every mutation kind.
  constexpr int kCores = 8;
  BudgetLedger ledger(kCores);
  int64_t fixed[kCores] = {};
  double granted[kCores] = {};
  int32_t threshold = 950;
  uint64_t x = 12345;
  auto next = [&x]() {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  for (int op = 0; op < 2'000; ++op) {
    const int core = static_cast<int>(next() % kCores);
    switch (next() % 5) {
      case 0: {
        const auto ppt = static_cast<int32_t>(next() % 400);
        ledger.AddFixed(core, ppt);
        fixed[core] += ppt;
        break;
      }
      case 1: {
        if (fixed[core] > 0) {
          const auto ppt = static_cast<int32_t>(next() % (fixed[core] + 1));
          ledger.RemoveFixed(core, ppt);
          fixed[core] -= ppt;
        }
        break;
      }
      case 2: {  // The rebalancer's move — including to the same core.
        const int to = static_cast<int>(next() % kCores);
        if (fixed[core] > 0) {
          const auto ppt = static_cast<int32_t>(next() % (fixed[core] + 1));
          ledger.MoveFixed(core, to, ppt);
          if (core != to) {
            fixed[core] -= ppt;
            fixed[to] += ppt;
          }
        }
        break;
      }
      case 3: {
        const double g = static_cast<double>(next() % 1200) / 1000.0;
        ledger.SetGranted(core, g);
        granted[core] = g;
        break;
      }
      case 4: {  // Adaptive admission backoff / recovery.
        threshold = static_cast<int32_t>(500 + next() % 501);
        break;
      }
    }
    int64_t want_fixed_total = 0;
    int64_t want_spare_total = 0;
    for (int c = 0; c < kCores; ++c) {
      ASSERT_EQ(ledger.fixed_ppt_on(c), fixed[c]) << "op " << op;
      want_fixed_total += fixed[c];
      const int64_t spare = threshold - fixed[c] -
                            Proportion::FromFraction(granted[c]).ppt();
      want_spare_total += spare > 0 ? spare : 0;
    }
    ASSERT_EQ(ledger.fixed_ppt_total(), want_fixed_total) << "op " << op;
    ASSERT_EQ(ledger.SparePpt(threshold), want_spare_total) << "op " << op;
  }
}

TEST(SaturationWindowTest, IncrementalEvidenceMatchesScanThroughEviction) {
  SaturationWindow window(4);
  EXPECT_EQ(window.evidence(), 0);
  // Fill: 1, 0, 1, 1 -> 3.
  window.Push(1);
  window.Push(0);
  window.Push(1);
  window.Push(1);
  EXPECT_EQ(window.evidence(), 3);
  EXPECT_EQ(window.evidence(), window.ScanEvidence());
  // Evictions: the oldest (1) falls out, a 0 comes in -> 2; then 1 -> stays window
  // of the last four.
  window.Push(0);
  EXPECT_EQ(window.evidence(), 2);
  EXPECT_EQ(window.evidence(), window.ScanEvidence());
  window.Push(1);
  EXPECT_EQ(window.evidence(), 3);
  EXPECT_EQ(window.evidence(), window.ScanEvidence());
}

TEST(SaturationWindowTest, ClearResetsTheRunningCount) {
  SaturationWindow window(8);
  for (int i = 0; i < 20; ++i) {
    window.Push(1);
  }
  EXPECT_EQ(window.evidence(), 8);
  window.Clear();
  EXPECT_EQ(window.evidence(), 0);
  EXPECT_EQ(window.ScanEvidence(), 0);
  window.Push(1);
  EXPECT_EQ(window.evidence(), 1);
}

TEST(SaturationWindowTest, LongRandomishSequenceStaysEqualToScan) {
  SaturationWindow window(250);  // 10 * FeedbackAllocator::kQualityPatience.
  for (int i = 0; i < 2'000; ++i) {
    window.Push(static_cast<uint8_t>((i * 7 + i / 3) % 5 == 0 ? 1 : 0));
    ASSERT_EQ(window.evidence(), window.ScanEvidence()) << "at push " << i;
  }
}

TEST(FillStarvedTest, ConsumerAndProducerCriteria) {
  QueueRegistry registry;
  BoundedBuffer* q = registry.CreateQueue("q", 100);
  QueueLinkage consumer{q, 1, QueueRole::kConsumer};
  QueueLinkage producer{q, 2, QueueRole::kProducer};
  // Empty queue: the producer's output is pinned empty; the consumer is fine.
  EXPECT_FALSE(FillStarved(consumer, 0.95));
  EXPECT_TRUE(FillStarved(producer, 0.95));
  // Full queue: the consumer's input is pinned full; the producer is fine.
  ASSERT_TRUE(q->TryPush(100));
  EXPECT_TRUE(FillStarved(consumer, 0.95));
  EXPECT_FALSE(FillStarved(producer, 0.95));
  // Half full: neither.
  ASSERT_EQ(q->TryPop(50), 50);
  EXPECT_FALSE(FillStarved(consumer, 0.95));
  EXPECT_FALSE(FillStarved(producer, 0.95));
}

TEST(StaticSaturatedQueueTest, ReturnsFirstStarvedLinkageInRegistrationOrder) {
  QueueRegistry registry;
  BoundedBuffer* healthy = registry.CreateQueue("healthy", 100);
  BoundedBuffer* pinned = registry.CreateQueue("pinned", 100);
  ASSERT_TRUE(healthy->TryPush(50));
  ASSERT_TRUE(pinned->TryPush(100));
  registry.Register(healthy, 7, QueueRole::kConsumer);
  registry.Register(pinned, 7, QueueRole::kConsumer);
  EXPECT_EQ(StaticSaturatedQueue(registry.LinkagesFor(7), 0.95), pinned);
  // Drain the pinned queue: nothing is starved.
  ASSERT_EQ(pinned->TryPop(60), 60);
  EXPECT_EQ(StaticSaturatedQueue(registry.LinkagesFor(7), 0.95), nullptr);
}

TEST(LinkageCacheTest, CleanUntilAQueueOrTheRegistrationChanges) {
  QueueRegistry registry;
  BoundedBuffer* a = registry.CreateQueue("a", 100);
  BoundedBuffer* b = registry.CreateQueue("b", 100);
  const ThreadId thread = 42;
  registry.Register(a, thread, QueueRole::kConsumer);
  registry.Register(b, thread, QueueRole::kProducer);

  LinkageCache cache;
  EXPECT_FALSE(cache.IsClean(registry, thread));  // Never primed.
  const auto& linkages = cache.Refresh(registry, thread);
  ASSERT_EQ(linkages.size(), 2u);
  cache.pressure = RawPressure(linkages);
  EXPECT_TRUE(cache.IsClean(registry, thread));

  // Any queue mutation (even a failed pop: it bumps a saturation counter the quality
  // detector reads) dirties the thread.
  ASSERT_TRUE(a->TryPush(10));
  EXPECT_FALSE(cache.IsClean(registry, thread));
  cache.Refresh(registry, thread);
  EXPECT_TRUE(cache.IsClean(registry, thread));
  EXPECT_EQ(b->TryPop(10), 0);  // Fails: empty — still a change epoch bump.
  EXPECT_FALSE(cache.IsClean(registry, thread));
  cache.Refresh(registry, thread);

  // A registration change dirties the thread even with quiet queues — and the stale
  // linkage reference is never followed (the epoch check short-circuits first).
  registry.Register(a, thread, QueueRole::kProducer);
  EXPECT_FALSE(cache.IsClean(registry, thread));
  EXPECT_EQ(cache.Refresh(registry, thread).size(), 3u);
  EXPECT_TRUE(cache.IsClean(registry, thread));
  registry.Unregister(thread);
  EXPECT_FALSE(cache.IsClean(registry, thread));
  EXPECT_EQ(cache.Refresh(registry, thread).size(), 0u);
}

TEST(LinkageCacheTest, UnrelatedThreadsActivityDoesNotDirty) {
  QueueRegistry registry;
  BoundedBuffer* mine = registry.CreateQueue("mine", 100);
  BoundedBuffer* other = registry.CreateQueue("other", 100);
  registry.Register(mine, 1, QueueRole::kConsumer);
  registry.Register(other, 2, QueueRole::kConsumer);

  LinkageCache cache;
  cache.Refresh(registry, 1);
  ASSERT_TRUE(other->TryPush(10));
  registry.Register(other, 2, QueueRole::kProducer);
  EXPECT_TRUE(cache.IsClean(registry, 1));
}

}  // namespace
}  // namespace realrate
