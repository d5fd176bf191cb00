// Ablation A6: the full scheduler comparison on a mixed workload — a real-rate
// pipeline, a CPU hog, and an interactive job — across the feedback allocator and the
// three baselines. Quantifies the paper's claimed benefits: rate tracking, low
// allocation variance, interactive responsiveness, and absence of starvation.
#include <memory>

#include "bench_util.h"
#include "exp/scenarios.h"
#include "exp/system.h"
#include "sched/fixed_priority.h"
#include "sched/lottery.h"
#include "sched/mlfq.h"
#include "util/stats.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/rate_schedule.h"
#include "workloads/server.h"

namespace realrate {
namespace {

struct MixedResult {
  double rate_error = 0.0;        // Mean relative |consumer - target| progress rate.
  double consumer_share_sd = 0.0; // Stddev of consumer CPU share per 100 ms window.
  double interactive_p95_ms = 0.0;
  double hog_cpu = 0.0;
  int64_t consumer_starved_windows = 0;  // 100 ms windows with zero consumer progress.
};

constexpr double kTargetRate = 5000.0;  // bytes/sec, as in Fig. 6.

template <typename Rig>
MixedResult Measure(Rig& rig, Simulator& sim, SimThread* consumer, SimThread* hog,
                    TtyPort& tty, Duration run_for) {
  RunningStats share;
  RunningStats rate_err;
  int64_t starved = 0;
  int64_t last_progress = 0;
  Cycles last_cycles = 0;
  const int windows = static_cast<int>(run_for / Duration::Millis(100));
  for (int i = 0; i < windows; ++i) {
    rig.RunFor(Duration::Millis(100));
    const int64_t progress = consumer->progress_units();
    const Cycles cycles = consumer->total_cycles();
    const double rate = static_cast<double>(progress - last_progress) * 10.0;
    if (i >= 10) {  // Skip the first second of warm-up.
      rate_err.Add(std::abs(rate - kTargetRate) / kTargetRate);
      share.Add(static_cast<double>(cycles - last_cycles) / 40e6);
      if (progress == last_progress) {
        ++starved;
      }
    }
    last_progress = progress;
    last_cycles = cycles;
  }
  MixedResult out;
  out.rate_error = rate_err.mean();
  out.consumer_share_sd = share.stddev();
  SampleSet latencies;
  for (double l : tty.latencies()) {
    latencies.Add(l * 1000.0);
  }
  out.interactive_p95_ms = latencies.empty() ? -1.0 : latencies.Percentile(95);
  out.hog_cpu = static_cast<double>(hog->total_cycles()) /
                static_cast<double>(sim.cpu().DurationToCycles(run_for));
  out.consumer_starved_windows = starved;
  return out;
}

struct FeedbackRig {
  System system{};
  void RunFor(Duration d) { system.RunFor(d); }
};

MixedResult RunFeedback(Duration run_for) {
  FeedbackRig rig;
  System& system = rig.system;
  BoundedBuffer* q = system.CreateQueue("pipe", 4'000);
  // Isochronous 5000 B/s source: 100 bytes every 20 ms, 400k cycles of work per item.
  SimThread* producer = system.Spawn(
      "producer", std::make_unique<PacedProducerWork>(q, 100, Duration::Millis(20),
                                                      400'000));
  SimThread* consumer = system.Spawn("consumer", std::make_unique<ConsumerWork>(q, 2'000));
  SimThread* hog = system.Spawn("hog", std::make_unique<CpuHogWork>());
  TtyPort tty("console");
  system.machine().Attach(&tty);
  SimThread* editor =
      system.Spawn("editor", std::make_unique<InteractiveWork>(&tty, 400'000));
  TypingProcess typist(system.sim(), &tty, {.mean_think = Duration::Millis(300), .seed = 5});

  system.queues().Register(q, producer->id(), QueueRole::kProducer);
  system.queues().Register(q, consumer->id(), QueueRole::kConsumer);
  system.controller().AddRealTime(producer, Proportion::Ppt(100), Duration::Millis(10));
  system.controller().AddRealRate(consumer);
  system.controller().AddMiscellaneous(hog);
  system.controller().AddMiscellaneous(editor);

  system.Start();
  typist.Start();
  return Measure(rig, system.sim(), consumer, hog, tty, run_for);
}

struct BaselineMixedRig {
  Simulator sim;
  ThreadRegistry threads;
  QueueRegistry queues;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Machine> machine;
  // Through the Machine so idle-fast-forward catch-up settles before reads.
  void RunFor(Duration d) { machine->RunFor(d); }
};

MixedResult RunBaseline(SchedulerKind kind, Duration run_for) {
  BaselineMixedRig rig;
  switch (kind) {
    case SchedulerKind::kFixedPriority:
      rig.scheduler = std::make_unique<FixedPriorityScheduler>();
      break;
    case SchedulerKind::kMlfq:
      rig.scheduler = std::make_unique<MlfqScheduler>(rig.sim.cpu(), Duration::Millis(10));
      break;
    case SchedulerKind::kLottery:
      rig.scheduler = std::make_unique<LotteryScheduler>(99);
      break;
    case SchedulerKind::kFeedbackRbs:
      break;
  }
  rig.machine = std::make_unique<Machine>(rig.sim, *rig.scheduler, rig.threads);

  BoundedBuffer* q = rig.queues.CreateQueue("pipe", 4'000);
  rig.machine->Attach(q);
  SimThread* producer = rig.threads.Create(
      "producer", std::make_unique<PacedProducerWork>(q, 100, Duration::Millis(20),
                                                      400'000));
  SimThread* consumer =
      rig.threads.Create("consumer", std::make_unique<ConsumerWork>(q, 2'000));
  SimThread* hog = rig.threads.Create("hog", std::make_unique<CpuHogWork>());
  TtyPort tty("console");
  rig.machine->Attach(&tty);
  SimThread* editor =
      rig.threads.Create("editor", std::make_unique<InteractiveWork>(&tty, 400'000));
  TypingProcess typist(rig.sim, &tty, {.mean_think = Duration::Millis(300), .seed = 5});

  // Typical deployment: the pipeline and editor at normal priority, the hog "niced"
  // high by its owner (the abuse case priorities cannot defend against).
  producer->set_priority(10);
  consumer->set_priority(10);
  editor->set_priority(10);
  hog->set_priority(12);
  producer->set_tickets(100);
  consumer->set_tickets(100);
  editor->set_tickets(100);
  hog->set_tickets(200);

  for (SimThread* t : {producer, consumer, hog, editor}) {
    rig.machine->Attach(t);
  }
  rig.machine->Start();
  typist.Start();
  return Measure(rig, rig.sim, consumer, hog, tty, run_for);
}

void PrintComparison() {
  bench::PrintHeader(
      "Ablation A6: mixed workload across schedulers\n"
      "pipeline (5000 B/s target) + greedy hog (self-raised priority/tickets) +\n"
      "interactive editor. 15 s runs; first second excluded");

  std::printf("  %-16s %11s %12s %14s %10s %10s\n", "scheduler", "rate err",
              "share sd", "editor p95", "hog cpu", "starved");
  const Duration run = Duration::Seconds(15);
  for (SchedulerKind kind :
       {SchedulerKind::kFixedPriority, SchedulerKind::kMlfq, SchedulerKind::kLottery,
        SchedulerKind::kFeedbackRbs}) {
    const MixedResult r = kind == SchedulerKind::kFeedbackRbs
                              ? RunFeedback(run)
                              : RunBaseline(kind, run);
    std::printf("  %-16s %10.1f%% %12.4f %11.1f ms %9.1f%% %10lld\n", ToString(kind),
                r.rate_error * 100, r.consumer_share_sd, r.interactive_p95_ms,
                r.hog_cpu * 100, static_cast<long long>(r.consumer_starved_windows));
  }
  std::printf(
      "\n  fixed-priority: the self-important hog starves pipeline and editor.\n"
      "  mlfq/lottery: nobody starves, but only because the consumer may grab\n"
      "  arbitrarily more CPU than its rate requires — there is no isolation and the\n"
      "  hog's share is whatever the heuristic happens to leave.\n"
      "  feedback-rbs: the consumer is held at its true need (~25 ppt), the editor is\n"
      "  trimmed to its burst usage, and the hog absorbs exactly the measured slack —\n"
      "  fine-grain control none of the baselines provide.\n\n");
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintComparison();
  return 0;
}
