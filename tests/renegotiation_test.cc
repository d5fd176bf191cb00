// The full quality-exception renegotiation loop (§3.1/§4.2): an overloaded real-rate
// consumer triggers a quality exception; the application responds by degrading its
// source rate until the system becomes feasible again. Also covers the I/O-intensive
// class: a disk-fed consumer whose allocation must track the disk, not its own appetite.
#include <memory>

#include <gtest/gtest.h>

#include "exp/system.h"
#include "workloads/adaptive_source.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"

namespace realrate {
namespace {

TEST(AdaptiveSourceTest, EmitsAtBaseRateUntilDegraded) {
  System system;
  BoundedBuffer* q = system.CreateQueue("q", 1'000'000);
  auto work = std::make_unique<AdaptiveSourceWork>(q, /*item_bytes=*/100,
                                                   /*base_interval=*/Duration::Millis(10),
                                                   /*cycles_per_item=*/10'000);
  AdaptiveSourceWork* source_ctl = work.get();
  SimThread* source = system.Spawn("source", std::move(work));
  ASSERT_TRUE(system.controller().AddRealTime(source, Proportion::Ppt(100),
                                              Duration::Millis(10)));
  system.Start();
  system.RunFor(Duration::Seconds(1));
  EXPECT_NEAR(source_ctl->items_produced(), 100, 5);  // 10 ms interval.

  source_ctl->Degrade();
  EXPECT_EQ(source_ctl->current_interval(), Duration::Millis(20));
  const int64_t before = source_ctl->items_produced();
  system.RunFor(Duration::Seconds(1));
  EXPECT_NEAR(source_ctl->items_produced() - before, 50, 5);  // Halved.

  source_ctl->Restore();
  EXPECT_EQ(source_ctl->current_interval(), Duration::Millis(10));
}

TEST(AdaptiveSourceTest, DegradationIsCapped) {
  System system;
  BoundedBuffer* q = system.CreateQueue("q", 1'000);
  auto work = std::make_unique<AdaptiveSourceWork>(q, 100, Duration::Millis(10), 1'000);
  AdaptiveSourceWork* ctl = work.get();
  system.Spawn("source", std::move(work));
  for (int i = 0; i < 10; ++i) {
    ctl->Degrade();
  }
  EXPECT_EQ(ctl->degradation_level(), 3);
  EXPECT_EQ(ctl->current_interval(), Duration::Millis(80));
}

TEST(RenegotiationTest, QualityExceptionDrivesSourceDegradation) {
  // Source emits 400-byte items every 4 ms (100 kB/s); the consumer needs
  // 100 kB/s * 8000 cyc/B = 800 Mcyc/s = 200% CPU. Infeasible: the queue pins full
  // and quality exceptions fire. The application's handler degrades the source; after
  // two halvings (25 kB/s -> 50% CPU) the system is feasible and exceptions stop.
  System system;

  BoundedBuffer* q = system.CreateQueue("pipe", 8'000);
  auto source_work = std::make_unique<AdaptiveSourceWork>(
      q, /*item_bytes=*/400, /*base_interval=*/Duration::Millis(4),
      /*cycles_per_item=*/40'000);
  AdaptiveSourceWork* source_ctl = source_work.get();
  SimThread* source = system.Spawn("source", std::move(source_work));
  SimThread* consumer =
      system.Spawn("consumer", std::make_unique<ConsumerWork>(q, /*cycles_per_byte=*/8'000));

  system.queues().Register(q, source->id(), QueueRole::kProducer);
  system.queues().Register(q, consumer->id(), QueueRole::kConsumer);
  ASSERT_TRUE(system.controller().AddRealTime(source, Proportion::Ppt(50),
                                              Duration::Millis(4)));
  system.controller().AddRealRate(consumer);

  int64_t exceptions = 0;
  system.controller().SetQualityExceptionFn([&](const QualityException& e) {
    ++exceptions;
    EXPECT_EQ(e.thread, consumer);
    source_ctl->Degrade();  // The renegotiation: lower the offered rate.
  });

  system.Start();
  system.RunFor(Duration::Seconds(20));

  EXPECT_GT(exceptions, 0);
  EXPECT_GE(source_ctl->degradation_level(), 2);  // At least down to 25 kB/s.

  // Feasible now: the queue leaves the saturated region and no new exceptions fire
  // over a quiet tail.
  const int64_t exceptions_before_tail = exceptions;
  system.RunFor(Duration::Seconds(10));
  EXPECT_EQ(exceptions, exceptions_before_tail);
  EXPECT_LT(q->FillFraction(), 0.95);

  // And the consumer now keeps up with the degraded rate.
  const int64_t before = consumer->progress_units();
  system.RunFor(Duration::Seconds(4));
  const double consumed_rate = static_cast<double>(consumer->progress_units() - before) / 4.0;
  const double offered_rate =
      400.0 / source_ctl->current_interval().ToSeconds();
  EXPECT_NEAR(consumed_rate, offered_rate, offered_rate * 0.15);
}

TEST(IoIntensiveTest, DiskBottleneckCapsConsumerAllocation) {
  // §3.2 "I/O intensive": the application consumes data produced by the I/O subsystem.
  // The disk delivers only 40 kB/s (well below what the consumer could process), so
  // the consumer's allocation must settle near the disk rate's needs — "increasing the
  // allocation may not improve the thread's progress, as might happen ... if another
  // resource (such as a disk-as-producer) is the bottleneck" (§3.3).
  System system;
  BoundedBuffer* readahead = system.CreateQueue("readahead", 16'000);

  ArrivalProcess::Config disk;
  disk.bytes_per_arrival = 4'000;  // One block.
  disk.mean_interarrival = Duration::Millis(100);
  disk.poisson = false;
  ArrivalProcess io(system.sim(), readahead, disk);

  SimThread* scanner = system.Spawn(
      "scanner", std::make_unique<ConsumerWork>(readahead, /*cycles_per_byte=*/1'000));
  system.queues().Register(readahead, scanner->id(), QueueRole::kConsumer);
  system.controller().AddRealRate(scanner);

  system.Start();
  io.Start();
  system.RunFor(Duration::Seconds(5));  // Warm-up: the allocation ramps from the floor.
  const int64_t dropped_during_warmup = io.dropped_bytes();
  const Cycles cycles_at_warmup = scanner->total_cycles();
  system.RunFor(Duration::Seconds(15));

  // Processing 40 kB/s at 1000 cyc/B needs 40 Mcyc/s = 10% = 100 ppt. The controller
  // must not hand the scanner the whole machine just because it is I/O hungry.
  const double share =
      static_cast<double>(scanner->total_cycles() - cycles_at_warmup) /
      static_cast<double>(system.sim().cpu().DurationToCycles(Duration::Seconds(15)));
  EXPECT_NEAR(share, 0.10, 0.03);
  EXPECT_LT(scanner->proportion().ppt(), 300);
  // Once converged, the ring never overflows again (a few warm-up drops are expected
  // while the allocation climbs from the floor).
  EXPECT_EQ(io.dropped_bytes(), dropped_during_warmup);
}

}  // namespace
}  // namespace realrate
