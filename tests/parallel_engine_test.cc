// The parallel dispatch engine (sim/parallel.h + the Machine's gated rounds):
// determinism is the contract. Every test here compares a host_threads > 1 run
// against the host_threads = 1 reference engine and demands bit-identical results —
// same trace hash, same event stream, same counters — while proving the parallel
// path actually engaged (parallel_rounds > 0), so the equivalences are not vacuous
// wins by the sequential fallback.
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/scenarios.h"
#include "queue/registry.h"
#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "task/registry.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/rate_schedule.h"

namespace realrate {
namespace {

// ---------------------------------------------------------------------------
// ParallelEngine in isolation: the fork/join primitive under the rounds.
// ---------------------------------------------------------------------------

TEST(ParallelEngineTest, RunsEveryItemExactlyOnceAcrossStripes) {
  ParallelEngine engine(4);
  EXPECT_EQ(engine.host_threads(), 4);
  constexpr int kItems = 65;  // Deliberately not a multiple of the thread count.
  std::vector<std::atomic<int>> hits(kItems);
  engine.RunRound(kItems, [&](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "item " << i;
  }
  EXPECT_EQ(engine.rounds_run(), 1);
}

TEST(ParallelEngineTest, StripingActuallyFansOutAcrossOsThreads) {
  // Item i runs on participant i mod host_threads by construction, so a round with
  // at least host_threads items must execute on exactly host_threads distinct OS
  // threads — the coordinator plus every worker.
  ParallelEngine engine(3);
  std::vector<std::thread::id> ran_on(9);
  engine.RunRound(9, [&](int i) { ran_on[static_cast<size_t>(i)] = std::this_thread::get_id(); });
  const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
  EXPECT_EQ(distinct.size(), 3u);
  // The stripe assignment is static: items congruent mod host_threads share a thread.
  EXPECT_EQ(ran_on[0], ran_on[3]);
  EXPECT_EQ(ran_on[1], ran_on[7]);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());  // Participant 0 is the caller.
}

TEST(ParallelEngineTest, SmallRoundRunsInlineOnTheCaller) {
  // One item never pays the fork/join handshake: it runs on the calling thread and
  // is not counted as a fanned round.
  ParallelEngine engine(4);
  std::thread::id ran_on;
  engine.RunRound(1, [&](int) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(engine.rounds_run(), 0);
}

TEST(ParallelEngineTest, ReusableAcrossManyRounds) {
  ParallelEngine engine(2);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    engine.RunRound(6, [&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1200);
  EXPECT_EQ(engine.rounds_run(), 200);
}

// ---------------------------------------------------------------------------
// Gated rounds on a bare RBS machine.
// ---------------------------------------------------------------------------

// A bare N-core machine driven by `host_threads` OS threads: simulator, one
// RbsScheduler per core, no controller, trace recording every event.
struct ParallelRig {
  Simulator sim;
  ThreadRegistry threads;
  std::vector<std::unique_ptr<RbsScheduler>> schedulers;
  std::unique_ptr<Machine> machine;

  ParallelRig(int num_cpus, int host_threads, MachineConfig config = MachineConfig{})
      : sim(CpuConfig{}, num_cpus) {
    config.host_threads = host_threads;
    std::vector<Scheduler*> raw;
    for (int i = 0; i < num_cpus; ++i) {
      schedulers.push_back(
          std::make_unique<RbsScheduler>(sim.cpu(static_cast<CpuId>(i))));
      raw.push_back(schedulers.back().get());
    }
    machine = std::make_unique<Machine>(sim, raw, threads, config);
    sim.trace().SetEnabled(true);
  }

  SimThread* SpawnHog(const std::string& name) {
    SimThread* t = threads.Create(name, std::make_unique<CpuHogWork>());
    machine->Attach(t);
    return t;
  }

  void Reserve(SimThread* t, int ppt, Duration period) {
    schedulers[static_cast<size_t>(t->cpu())]->SetReservation(t, Proportion::Ppt(ppt),
                                                              period, sim.Now());
  }
};

// What a rig run leaves behind for cross-host-thread comparison.
struct RigOutcome {
  uint64_t trace_hash = 0;
  std::vector<TraceEvent> events;
  int64_t dispatches = 0;
  int64_t migrations = 0;
  int64_t idle_suspensions = 0;
  int64_t parallel_rounds = 0;
  int64_t mailbox_rounds = 0;
  int64_t budget_exhaustions = 0;
};

RigOutcome Finish(ParallelRig& rig) {
  RigOutcome out;
  out.trace_hash = rig.sim.trace().Hash();
  out.events = rig.sim.trace().events();
  out.dispatches = rig.machine->dispatches();
  out.migrations = rig.machine->migrations();
  out.idle_suspensions = rig.machine->idle_suspensions();
  out.parallel_rounds = rig.machine->parallel_rounds();
  out.mailbox_rounds = rig.machine->mailbox_rounds();
  out.budget_exhaustions = rig.sim.trace().Count(TraceKind::kBudgetExhausted);
  return out;
}

// Plain hogs: every round passes the independence gate, so a host_threads > 1 run
// is parallel essentially wall to wall.
RigOutcome RunHogRig(int host_threads, Duration run_for = Duration::Millis(80)) {
  ParallelRig rig(4, host_threads);
  for (int i = 0; i < 12; ++i) {
    rig.SpawnHog("hog" + std::to_string(i));
  }
  rig.machine->Start();
  rig.machine->RunFor(run_for);
  return Finish(rig);
}

TEST(ParallelRoundTest, EventStreamIsIdenticalNotJustTheHash) {
  // The strongest form of the contract: not hash equality but element-wise equality
  // of the full recorded event stream — timestamps, kinds, threads, args, and above
  // all ORDER. The epoch barrier must replay each core's staged lane in fixed core
  // order; any drain-order bug shows up here as a transposition the hash test would
  // also catch but could not localize.
  const RigOutcome seq = RunHogRig(1);
  const RigOutcome par = RunHogRig(4);
  EXPECT_EQ(seq.parallel_rounds, 0);
  EXPECT_GT(par.parallel_rounds, 0);
  EXPECT_EQ(par.mailbox_rounds, 0);  // All hogs: nothing to stake.
  EXPECT_EQ(seq.dispatches, par.dispatches);
  ASSERT_EQ(seq.events.size(), par.events.size());
  for (size_t i = 0; i < seq.events.size(); ++i) {
    const TraceEvent& a = seq.events[i];
    const TraceEvent& b = par.events[i];
    ASSERT_TRUE(a.t == b.t && a.kind == b.kind && a.thread == b.thread &&
                a.arg0 == b.arg0 && a.arg1 == b.arg1)
        << "event " << i << " diverged: [" << ToString(a.kind) << " t=" << a.t.nanos()
        << " thread=" << a.thread << "] vs [" << ToString(b.kind)
        << " t=" << b.t.nanos() << " thread=" << b.thread << "]";
  }
  EXPECT_EQ(seq.trace_hash, par.trace_hash);
}

TEST(ParallelRoundTest, ThrottledReservationsStageTheirSleepsDeterministically) {
  // Reserved hogs under the paper's non-work-conserving RBS exhaust their budgets
  // mid-round: the worker must stage the kBudgetExhausted record and the
  // sleep-until-replenish instead of touching the shared sleep wheel, and the
  // barrier must assign sleeper generations in exactly the sequential order.
  auto run = [](int host_threads) {
    ParallelRig rig(2, host_threads);
    std::vector<SimThread*> hogs;
    for (int i = 0; i < 6; ++i) {
      hogs.push_back(rig.SpawnHog("hog" + std::to_string(i)));
    }
    for (size_t i = 0; i < hogs.size(); ++i) {
      rig.Reserve(hogs[i], /*ppt=*/150 + 50 * static_cast<int>(i % 3),
                  Duration::Millis(5 + 5 * static_cast<int>(i % 2)));
    }
    rig.machine->Start();
    rig.machine->RunFor(Duration::Millis(100));
    return Finish(rig);
  };
  const RigOutcome seq = run(1);
  const RigOutcome par = run(2);
  EXPECT_GT(seq.budget_exhaustions, 0);  // The scenario actually throttles.
  EXPECT_GT(par.parallel_rounds, 0);     // ...and the throttling rounds fanned out.
  EXPECT_EQ(par.mailbox_rounds, 0);
  EXPECT_EQ(seq.trace_hash, par.trace_hash);
  EXPECT_EQ(seq.budget_exhaustions, par.budget_exhaustions);
  EXPECT_EQ(seq.dispatches, par.dispatches);
}

TEST(ParallelRoundTest, RebalancerMigrationsAreHostThreadInvariant) {
  // Cross-core effects between rounds: reservations placed after attachment
  // over-subscribe core 0 past the 0.9 threshold, so the periodic rebalancer
  // migrates threads while gated rounds are running either side of it. The
  // migration schedule (which thread, which tick, which target core) must be
  // identical at every host-thread count.
  auto run = [](int host_threads) {
    ParallelRig rig(2, host_threads);
    std::vector<SimThread*> hogs;
    for (int i = 0; i < 6; ++i) {
      hogs.push_back(rig.SpawnHog("hog" + std::to_string(i)));
    }
    for (SimThread* hog : hogs) {
      if (hog->cpu() == 0) {
        rig.Reserve(hog, /*ppt=*/350, Duration::Millis(10));
      }
    }
    rig.machine->Start();
    rig.machine->RunFor(Duration::Millis(350));
    return Finish(rig);
  };
  const RigOutcome seq = run(1);
  const RigOutcome par = run(2);
  EXPECT_GT(seq.migrations, 0);  // The rebalancer actually moved something.
  EXPECT_GT(par.parallel_rounds, 0);
  EXPECT_EQ(par.mailbox_rounds, 0);
  EXPECT_EQ(seq.migrations, par.migrations);
  EXPECT_EQ(seq.trace_hash, par.trace_hash);
  EXPECT_EQ(seq.dispatches, par.dispatches);
}

TEST(ParallelRoundTest, HorizonWakeupsAndIdleFastForwardAreHostThreadInvariant) {
  // Delayed hogs park the whole machine: the dispatch clocks suspend (idle
  // fast-forward), the sleep wheel's horizon event wakes the machine back up, and
  // the staggered starts mean successive wakeups land on different cores. Resuming
  // the per-core tick clocks from a suspension must re-issue the exact event-id
  // sequence the reference engine issues, or every subsequent tick's FIFO tie-break
  // drifts.
  auto run = [](int host_threads) {
    ParallelRig rig(4, host_threads);
    for (int i = 0; i < 8; ++i) {
      SimThread* t = rig.threads.Create(
          "delayed" + std::to_string(i),
          std::make_unique<DelayedHogWork>(
              TimePoint::FromNanos((20 + 7 * static_cast<int64_t>(i)) * 1'000'000)));
      rig.machine->Attach(t);
    }
    rig.machine->Start();
    rig.machine->RunFor(Duration::Millis(140));
    return Finish(rig);
  };
  const RigOutcome seq = run(1);
  const RigOutcome par = run(4);
  EXPECT_GT(seq.idle_suspensions, 0);  // The machine actually went idle.
  EXPECT_GT(par.parallel_rounds, 0);   // ...and ran parallel once the hogs started.
  EXPECT_EQ(par.mailbox_rounds, 0);
  EXPECT_EQ(seq.idle_suspensions, par.idle_suspensions);
  EXPECT_EQ(seq.trace_hash, par.trace_hash);
  EXPECT_EQ(seq.dispatches, par.dispatches);
}

TEST(ParallelRoundTest, TwentyRerunsAreBitIdentical) {
  // Run-to-run stress: a racy barrier or a missed fence shows up as a flaky hash,
  // not a deterministic one. Twenty fresh engines, same workload, one hash.
  const RigOutcome first = RunHogRig(4, Duration::Millis(40));
  EXPECT_GT(first.parallel_rounds, 0);
  EXPECT_EQ(first.mailbox_rounds, 0);
  for (int rerun = 1; rerun < 20; ++rerun) {
    const RigOutcome again = RunHogRig(4, Duration::Millis(40));
    ASSERT_EQ(again.trace_hash, first.trace_hash) << "rerun " << rerun;
    ASSERT_EQ(again.dispatches, first.dispatches) << "rerun " << rerun;
  }
}

// ---------------------------------------------------------------------------
// Scenario level: the server farm under the full feedback stack.
// ---------------------------------------------------------------------------

TEST(ParallelRoundTest, HogFarmTraceIsHostThreadInvariant) {
  // A pure-hog farm (no pipelines) under the complete production stack —
  // controller, admission, squish, idle fast-forward — is gate-eligible nearly
  // every round, so this exercises the parallel path against the controller's
  // cross-core actuation at full intensity.
  ServerFarmParams params;
  params.num_pipelines = 0;
  params.num_hogs = 64;
  params.num_cpus = 4;
  params.run_for = Duration::Millis(120);
  const ServerFarmResult seq = RunServerFarmScenario(params);
  EXPECT_EQ(seq.parallel_rounds, 0);

  for (const int host_threads : {2, 4}) {
    ServerFarmParams fanned = params;
    fanned.host_threads = host_threads;
    const ServerFarmResult par = RunServerFarmScenario(fanned);
    EXPECT_GT(par.parallel_rounds, 0) << host_threads << " host threads";
    EXPECT_EQ(par.mailbox_rounds, 0) << host_threads << " host threads";
    EXPECT_EQ(par.trace_hash, seq.trace_hash) << host_threads << " host threads";
    EXPECT_EQ(par.total_dispatches, seq.total_dispatches)
        << host_threads << " host threads";
  }
}

TEST(ParallelRoundTest, PipelineFarmTraceIsHostThreadInvariant) {
  // The mixed farm: producer/consumer pipelines do not advertise round-local work,
  // so most rounds take the sequential fallback and only hog-dominated stretches
  // fan out. The equivalence must hold across every gate decision and every
  // fallback/parallel boundary.
  ServerFarmParams params;
  params.num_pipelines = 96;
  params.num_hogs = 8;
  params.num_cpus = 4;
  params.run_for = Duration::Millis(120);
  const ServerFarmResult seq = RunServerFarmScenario(params);

  ServerFarmParams fanned = params;
  fanned.host_threads = 4;
  const ServerFarmResult par = RunServerFarmScenario(fanned);
  EXPECT_EQ(par.trace_hash, seq.trace_hash);
  EXPECT_EQ(par.total_dispatches, seq.total_dispatches);
  EXPECT_EQ(par.total_consumed_bytes, seq.total_consumed_bytes);
  EXPECT_EQ(par.idle_suspensions, seq.idle_suspensions);
}

// ---------------------------------------------------------------------------
// Mailbox rounds: queue-driven pipelines through the slot-reservation gate.
// ---------------------------------------------------------------------------

// Four producer -> consumer pipelines on a bare 4-core rig, shaped so the mailbox
// gate admits nearly every steady-state round: the queue (256 KB) dwarfs one
// round's staked traffic (producer ~2 KB push, consumer ~200 B pop per 400k-cycle
// tick), the fill ramps and never reaches either edge within the run, and no
// thread sleeps or blocks after the first tick.
RigOutcome RunPipelineRig(int host_threads, QueueRegistry& queues) {
  ParallelRig rig(4, host_threads);
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    BoundedBuffer* queue = queues.CreateQueue("pipe" + tag, 256 * 1024);
    rig.machine->Attach(queue);
    SimThread* producer = rig.threads.Create(
        "producer" + tag,
        std::make_unique<ProducerWork>(queue, /*cycles_per_item=*/50'000,
                                       RateSchedule(256.0)));
    rig.machine->Attach(producer);
    SimThread* consumer = rig.threads.Create(
        "consumer" + tag,
        std::make_unique<ConsumerWork>(queue, /*cycles_per_byte=*/2'000));
    rig.machine->Attach(consumer);
  }
  rig.machine->Start();
  rig.machine->RunFor(Duration::Millis(80));
  return Finish(rig);
}

TEST(MailboxRoundTest, PipelineEventStreamIsIdenticalNotJustTheHash) {
  // The tentpole contract at its strongest: element-wise equality of the full
  // event stream for rounds that performed staked queue operations in parallel.
  // Any divergence in staged-effect ordering, stake settlement, or plan bounds
  // shows up here as a localized transposition.
  QueueRegistry seq_queues;
  QueueRegistry par_queues;
  const RigOutcome seq = RunPipelineRig(1, seq_queues);
  const RigOutcome par = RunPipelineRig(4, par_queues);
  EXPECT_EQ(seq.mailbox_rounds, 0);
  EXPECT_GT(par.mailbox_rounds, 0);
  EXPECT_EQ(seq.dispatches, par.dispatches);
  ASSERT_EQ(seq.events.size(), par.events.size());
  for (size_t i = 0; i < seq.events.size(); ++i) {
    const TraceEvent& a = seq.events[i];
    const TraceEvent& b = par.events[i];
    ASSERT_TRUE(a.t == b.t && a.kind == b.kind && a.thread == b.thread &&
                a.arg0 == b.arg0 && a.arg1 == b.arg1)
        << "event " << i << " diverged: [" << ToString(a.kind) << " t=" << a.t.nanos()
        << " thread=" << a.thread << "] vs [" << ToString(b.kind)
        << " t=" << b.t.nanos() << " thread=" << b.thread << "]";
  }
  EXPECT_EQ(seq.trace_hash, par.trace_hash);
}

TEST(MailboxRoundTest, QueueStateMatchesTheSequentialEngineExactly) {
  // Settled stakes must leave every buffer counter — fill, totals, saturation,
  // change epoch — bit-identical to the reference engine's, not just the trace.
  QueueRegistry seq_queues;
  QueueRegistry par_queues;
  const RigOutcome seq = RunPipelineRig(1, seq_queues);
  const RigOutcome par = RunPipelineRig(4, par_queues);
  EXPECT_GT(par.mailbox_rounds, 0);
  ASSERT_EQ(seq_queues.queue_count(), par_queues.queue_count());
  for (size_t i = 0; i < seq_queues.queue_count(); ++i) {
    const BoundedBuffer* a = seq_queues.AllQueues()[i];
    const BoundedBuffer* b = par_queues.AllQueues()[i];
    EXPECT_EQ(a->fill(), b->fill()) << a->name();
    EXPECT_EQ(a->total_pushed(), b->total_pushed()) << a->name();
    EXPECT_EQ(a->total_popped(), b->total_popped()) << a->name();
    EXPECT_EQ(a->full_hits(), b->full_hits()) << a->name();
    EXPECT_EQ(a->empty_hits(), b->empty_hits()) << a->name();
    EXPECT_EQ(a->change_epoch(), b->change_epoch()) << a->name();
  }
}

TEST(MailboxRoundTest, PipelineFarmFansOutThroughTheMailboxGate) {
  // The full production stack — feedback controller, admission, squish — over a
  // pipeline-only farm in the mailbox sweet spot: matched rates (producer 40 ppt
  // at 24k cycles/item of 64 B ~ 256 KB/s, consumer parity ~43 ppt at 400
  // cycles/byte) keep both endpoints unblocked, and one tick's staked traffic
  // (~2.5 KB each way) is small against the 64 KB queue whose fill the
  // controller steers toward half. Before the mailbox gate these rounds all took
  // the sequential fallback (parallel_rounds stayed 0 with no hogs to gate in).
  ServerFarmParams params;
  params.num_cpus = 4;
  params.num_pipelines = 16;
  params.num_hogs = 0;
  params.queue_bytes = 64 * 1024;
  params.producer_proportion = Proportion::Ppt(40);
  params.producer_cycles_per_item = 24'000;
  params.bytes_per_item = 64.0;
  params.consumer_cycles_per_byte = 400;
  params.run_for = Duration::Millis(300);
  const ServerFarmResult seq = RunServerFarmScenario(params);
  EXPECT_EQ(seq.parallel_rounds, 0);
  EXPECT_EQ(seq.mailbox_rounds, 0);

  for (const int host_threads : {2, 4}) {
    ServerFarmParams fanned = params;
    fanned.host_threads = host_threads;
    const ServerFarmResult par = RunServerFarmScenario(fanned);
    EXPECT_GT(par.mailbox_rounds, 0) << host_threads << " host threads";
    EXPECT_EQ(par.trace_hash, seq.trace_hash) << host_threads << " host threads";
    EXPECT_EQ(par.total_dispatches, seq.total_dispatches)
        << host_threads << " host threads";
    EXPECT_EQ(par.total_consumed_bytes, seq.total_consumed_bytes)
        << host_threads << " host threads";
  }
}

TEST(MailboxRoundTest, OnlyRoundsThatStakedCountAsMailboxRounds) {
  // A small mixed farm: two pipelines beside two hogs. When a staked pipeline
  // thread throttles inside a round, the runnable set shrinks to the hogs without a
  // gate-epoch bump; the rounds that follow fan out with nothing staked and must not
  // count as mailbox rounds. (Counting them gave 184 mailbox rounds here.)
  ServerFarmParams params;
  params.num_cpus = 2;
  params.num_pipelines = 2;
  params.num_hogs = 2;
  params.host_threads = 2;
  params.run_for = Duration::Seconds(2);
  const ServerFarmResult par = RunServerFarmScenario(params);
  EXPECT_EQ(par.trace_hash, 0xdd205844d1a53030ULL);
  EXPECT_EQ(par.parallel_rounds, 999);
  EXPECT_EQ(par.mailbox_rounds, 70);
}

TEST(ParallelRoundTest, HostThreadsBeyondCoresAreClampedAndStillEquivalent) {
  ParallelRig rig(2, /*host_threads=*/16);
  EXPECT_EQ(rig.machine->host_threads(), 2);  // Clamped to the core count.
  for (int i = 0; i < 4; ++i) {
    rig.SpawnHog("hog" + std::to_string(i));
  }
  rig.machine->Start();
  rig.machine->RunFor(Duration::Millis(40));
  const RigOutcome clamped = Finish(rig);
  EXPECT_GT(clamped.parallel_rounds, 0);
  EXPECT_EQ(clamped.mailbox_rounds, 0);

  ParallelRig reference(2, /*host_threads=*/1);
  for (int i = 0; i < 4; ++i) {
    reference.SpawnHog("hog" + std::to_string(i));
  }
  reference.machine->Start();
  reference.machine->RunFor(Duration::Millis(40));
  EXPECT_EQ(clamped.trace_hash, reference.sim.trace().Hash());
}

}  // namespace
}  // namespace realrate
