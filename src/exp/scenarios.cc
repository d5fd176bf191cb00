#include "exp/scenarios.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "exp/sampler.h"
#include "exp/system.h"
#include "sched/fixed_priority.h"
#include "sched/lottery.h"
#include "sched/mlfq.h"
#include "util/assert.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/rate_schedule.h"

namespace realrate {

const char* ToString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFeedbackRbs:
      return "feedback-rbs";
    case SchedulerKind::kFixedPriority:
      return "fixed-priority";
    case SchedulerKind::kMlfq:
      return "mlfq";
    case SchedulerKind::kLottery:
      return "lottery";
  }
  return "?";
}

std::unique_ptr<Scheduler> MakeBaselineScheduler(SchedulerKind kind, const Cpu& cpu,
                                                 uint64_t lottery_seed) {
  switch (kind) {
    case SchedulerKind::kFixedPriority:
      return std::make_unique<FixedPriorityScheduler>();
    case SchedulerKind::kMlfq:
      return std::make_unique<MlfqScheduler>(cpu, Duration::Millis(10));
    case SchedulerKind::kLottery:
      return std::make_unique<LotteryScheduler>(lottery_seed);
    case SchedulerKind::kFeedbackRbs:
      break;
  }
  RR_CHECK(false);  // Feedback rigs are built through System.
  return nullptr;
}

PipelineResult RunPipelineScenario(const PipelineParams& params) {
  SystemConfig config;
  config.cpu.clock_hz = params.clock_hz;
  config.controller = params.controller;
  System system(config);
  system.sim().trace().SetEnabled(true);  // Scenario results report the trace hash.

  BoundedBuffer* queue = system.CreateQueue("pipe", params.queue_bytes);

  RateSchedule schedule = RateSchedule::PaperPulses(
      params.base_bytes_per_item, params.doubled_bytes_per_item, params.pulses_start,
      params.rising_widths, params.pulse_gap, params.falling_widths);

  SimThread* producer = system.Spawn(
      "producer",
      std::make_unique<ProducerWork>(queue, params.producer_cycles_per_item, schedule));
  SimThread* consumer = system.Spawn(
      "consumer", std::make_unique<ConsumerWork>(queue, params.consumer_cycles_per_byte));
  consumer->set_importance(params.consumer_importance);

  system.queues().Register(queue, producer->id(), QueueRole::kProducer);
  system.queues().Register(queue, consumer->id(), QueueRole::kConsumer);

  RR_CHECK(system.controller().AddRealTime(producer, params.producer_proportion,
                                           params.producer_period));
  system.controller().AddRealRate(consumer);

  SimThread* hog = nullptr;
  if (params.with_hog) {
    hog = system.Spawn("hog", std::make_unique<CpuHogWork>());
    hog->set_importance(params.hog_importance);
    system.controller().AddMiscellaneous(hog);
  }

  Sampler sampler(system.sim(), params.sample_period);
  sampler.AddRateProbe("producer_rate", [producer] { return producer->progress_units(); });
  sampler.AddRateProbe("consumer_rate", [consumer] { return consumer->progress_units(); });
  sampler.AddProbe("fill_level", [queue] { return queue->FillFraction(); });
  sampler.AddProbe("producer_alloc",
                   [producer] { return static_cast<double>(producer->proportion().ppt()); });
  sampler.AddProbe("consumer_alloc",
                   [consumer] { return static_cast<double>(consumer->proportion().ppt()); });
  if (hog != nullptr) {
    sampler.AddProbe("hog_alloc",
                     [hog] { return static_cast<double>(hog->proportion().ppt()); });
  }
  sampler.AddProbe("production_bpk", [&schedule, &system, &params] {
    // bytes per Kcycle, the Fig. 7 third graph.
    return schedule.ValueAt(system.sim().Now()) /
           static_cast<double>(params.producer_cycles_per_item) * 1000.0;
  });

  system.Start();
  sampler.Start();
  system.RunFor(params.run_for);

  PipelineResult result;
  result.producer_rate = sampler.Series("producer_rate");
  result.consumer_rate = sampler.Series("consumer_rate");
  result.fill_level = sampler.Series("fill_level");
  result.producer_alloc_ppt = sampler.Series("producer_alloc");
  result.consumer_alloc_ppt = sampler.Series("consumer_alloc");
  if (hog != nullptr) {
    result.hog_alloc_ppt = sampler.Series("hog_alloc");
    result.hog_final_alloc_ppt = result.hog_alloc_ppt.points().back().value;
  }
  result.production_bytes_per_kcycle = sampler.Series("production_bpk");

  // Response time to the first rising pulse: time to reach 90% of the doubled
  // progress-rate target.
  const double producer_cps =
      params.producer_proportion.ToFraction() * params.clock_hz;  // cycles/sec.
  const double doubled_rate = producer_cps /
                              static_cast<double>(params.producer_cycles_per_item) *
                              params.doubled_bytes_per_item;
  const TimePoint hit =
      result.consumer_rate.FirstCrossing(params.pulses_start, 0.9 * doubled_rate,
                                         /*rising=*/true);
  result.response_time_s =
      hit == TimePoint::Max() ? -1.0 : (hit - params.pulses_start).ToSeconds();

  // Settling: first sample time after the pulse from which |fill - 1/2| stays within
  // 0.05 for at least 0.5 s.
  result.settle_time_s = -1.0;
  {
    const auto& pts = result.fill_level.points();
    for (size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].t < params.pulses_start) {
        continue;
      }
      bool settled = true;
      bool window_complete = false;
      for (size_t j = i; j < pts.size(); ++j) {
        if (pts[j].t - pts[i].t > Duration::Millis(500)) {
          window_complete = true;
          break;
        }
        if (std::abs(pts[j].value - 0.5) > 0.05) {
          settled = false;
          break;
        }
      }
      if (settled && window_complete) {
        result.settle_time_s = (pts[i].t - params.pulses_start).ToSeconds();
        break;
      }
    }
  }

  result.quality_exceptions = system.controller().quality_exceptions();
  result.squish_events = system.controller().squish_events();
  result.consumer_deadline_misses = consumer->deadline_misses();
  result.trace_hash = system.sim().trace().Hash();
  result.consumer_final_alloc_ppt = result.consumer_alloc_ppt.points().back().value;

  // Steady-state fill deviation over the pre-pulse window [2 s, 5 s).
  double deviation = 0.0;
  int64_t n = 0;
  for (const auto& p : result.fill_level.points()) {
    if (p.t >= TimePoint::FromNanos(2'000'000'000) && p.t < params.pulses_start) {
      deviation += std::abs(p.value - 0.5);
      ++n;
    }
  }
  result.fill_deviation = n > 0 ? deviation / static_cast<double>(n) : 0.0;
  return result;
}

ControllerOverheadPoint MeasureControllerOverhead(int num_processes, Duration run_for) {
  RR_EXPECTS(num_processes >= 0);
  SystemConfig config;
  System system(config);
  for (int i = 0; i < num_processes; ++i) {
    SimThread* t = system.Spawn("dummy" + std::to_string(i), std::make_unique<IdleWork>());
    system.controller().AddMiscellaneous(t);
  }
  system.Start();
  system.RunFor(run_for);

  const Cycles total = system.sim().cpu().DurationToCycles(run_for);
  ControllerOverheadPoint point;
  point.num_processes = num_processes;
  point.overhead_fraction = static_cast<double>(system.sim().cpu().Used(CpuUse::kController)) /
                            static_cast<double>(total);
  return point;
}

DispatchOverheadPoint MeasureDispatchOverhead(double frequency_hz, Duration run_for) {
  RR_EXPECTS(frequency_hz > 0);
  SystemConfig config;
  config.machine.dispatch_interval =
      Duration::Nanos(static_cast<int64_t>(1e9 / frequency_hz));
  config.start_controller = false;
  System system(config);

  // "a program that attempts to use as much CPU as it can" — one unreserved hog.
  system.Spawn("grabber", std::make_unique<CpuHogWork>());

  system.Start();
  system.RunFor(run_for);

  const Cycles total = system.sim().cpu().DurationToCycles(run_for);
  DispatchOverheadPoint point;
  point.frequency_hz = frequency_hz;
  point.cpu_available = static_cast<double>(system.sim().cpu().Used(CpuUse::kUser)) /
                        static_cast<double>(total);
  return point;
}

namespace {

// Builds a machine around a baseline scheduler. The scheduler must not outlive the
// rig's simulator (MLFQ keeps a reference to the rig's Cpu), so the rig owns both and
// constructs them in order. `lottery_seed` is the injected engine seed for the one
// stochastic baseline; the caller owns it so runs are replayable.
struct BaselineRig {
  Simulator sim;
  ThreadRegistry threads;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Machine> machine;

  explicit BaselineRig(SchedulerKind kind, uint64_t lottery_seed = 1234)
      : scheduler(MakeBaselineScheduler(kind, sim.cpu(), lottery_seed)),
        machine(std::make_unique<Machine>(sim, *scheduler, threads)) {}
};

}  // namespace

namespace {

// Shared result extraction for both rig flavours. A wait still pending at simulation
// end (high blocked forever — the inversion signature) counts as lasting until the end.
PathfinderResult ExtractPathfinderResult(const Simulator& sim, SimThread* low,
                                         SimThread* medium, SimThread* high,
                                         Duration run_for) {
  const auto& low_work = static_cast<const LockWork&>(low->work());
  const auto& high_work = static_cast<const LockWork&>(high->work());
  const auto total = static_cast<double>(sim.cpu().DurationToCycles(run_for));
  const TimePoint steady_from = TimePoint::FromNanos(2'000'000'000);
  PathfinderResult result;
  result.high_max_wait_s = high_work.MaxWaitSeconds();
  result.high_max_wait_steady_s = high_work.MaxWaitSecondsAfter(steady_from);
  if (high_work.still_waiting()) {
    const double pending = (sim.Now() - high_work.wait_start()).ToSeconds();
    result.high_max_wait_s = std::max(result.high_max_wait_s, pending);
    // Flag only pathological pending waits; a routine in-flight acquisition at the
    // instant the simulation stops is not an inversion.
    result.high_still_blocked = pending > 0.5;
    if (high_work.wait_start() >= steady_from || sim.Now() > steady_from) {
      result.high_max_wait_steady_s =
          std::max(result.high_max_wait_steady_s,
                   (sim.Now() - std::max(high_work.wait_start(), steady_from)).ToSeconds());
    }
  }
  result.high_acquisitions = high_work.acquisitions();
  result.low_acquisitions = low_work.acquisitions();
  result.high_cpu = static_cast<double>(high->total_cycles()) / total;
  result.medium_cpu = static_cast<double>(medium->total_cycles()) / total;
  result.low_cpu = static_cast<double>(low->total_cycles()) / total;
  return result;
}

}  // namespace

PathfinderResult RunPathfinderScenario(SchedulerKind kind, Duration run_for,
                                       uint64_t lottery_seed) {
  // Threads: low-priority housekeeping task that takes a shared mutex; a CPU-bound
  // medium-priority load that arrives at t = 1 s (while the low task is likely inside
  // its critical section); a high-priority periodic task needing the same mutex.
  // Classic Mars Pathfinder: high blocks on low, low starved by medium.
  const Cycles kLowHold = 2'000'000;    // 5 ms at 400 MHz.
  const Duration kLowThink = Duration::Millis(1);
  const Cycles kHighHold = 200'000;     // 0.5 ms.
  const Duration kHighThink = Duration::Millis(50);
  const TimePoint kLoadArrival = TimePoint::FromNanos(1'000'000'000);

  if (kind == SchedulerKind::kFeedbackRbs) {
    System system{};
    SimMutex mutex("bus");
    system.machine().Attach(&mutex);

    SimThread* low =
        system.Spawn("low", std::make_unique<LockWork>(&mutex, kLowHold, kLowThink));
    SimThread* medium =
        system.Spawn("medium", std::make_unique<DelayedHogWork>(kLoadArrival));
    SimThread* high =
        system.Spawn("high", std::make_unique<LockWork>(&mutex, kHighHold, kHighThink));
    high->set_importance(8.0);
    medium->set_importance(2.0);

    system.controller().AddMiscellaneous(low);
    system.controller().AddMiscellaneous(medium);
    system.controller().AddMiscellaneous(high);

    system.Start();
    system.RunFor(run_for);
    return ExtractPathfinderResult(system.sim(), low, medium, high, run_for);
  }

  BaselineRig rig(kind, lottery_seed);
  SimMutex mutex("bus");
  rig.machine->Attach(&mutex);

  SimThread* low =
      rig.threads.Create("low", std::make_unique<LockWork>(&mutex, kLowHold, kLowThink));
  SimThread* medium =
      rig.threads.Create("medium", std::make_unique<DelayedHogWork>(kLoadArrival));
  SimThread* high =
      rig.threads.Create("high", std::make_unique<LockWork>(&mutex, kHighHold, kHighThink));
  low->set_priority(1);
  medium->set_priority(5);
  high->set_priority(10);
  low->set_tickets(10);
  medium->set_tickets(50);
  high->set_tickets(100);
  rig.machine->Attach(low);
  rig.machine->Attach(medium);
  rig.machine->Attach(high);

  rig.machine->Start();
  rig.machine->RunFor(run_for);
  return ExtractPathfinderResult(rig.sim, low, medium, high, run_for);
}

StarvationResult RunStarvationScenario(SchedulerKind kind, double importance_ratio,
                                       Duration run_for, uint64_t lottery_seed) {
  StarvationResult result;
  if (kind == SchedulerKind::kFeedbackRbs) {
    System system{};
    SimThread* favored = system.Spawn("favored", std::make_unique<CpuHogWork>());
    SimThread* lesser = system.Spawn("lesser", std::make_unique<CpuHogWork>());
    favored->set_importance(importance_ratio);
    lesser->set_importance(1.0);
    system.controller().AddMiscellaneous(favored);
    system.controller().AddMiscellaneous(lesser);
    system.Start();
    system.RunFor(run_for);
    const auto total = static_cast<double>(system.sim().cpu().DurationToCycles(run_for));
    result.favored_cpu = static_cast<double>(favored->total_cycles()) / total;
    result.lesser_cpu = static_cast<double>(lesser->total_cycles()) / total;
  } else {
    BaselineRig rig(kind, lottery_seed);
    SimThread* favored = rig.threads.Create("favored", std::make_unique<CpuHogWork>());
    SimThread* lesser = rig.threads.Create("lesser", std::make_unique<CpuHogWork>());
    favored->set_priority(10);
    lesser->set_priority(1);
    favored->set_tickets(static_cast<int64_t>(100 * importance_ratio));
    lesser->set_tickets(100);
    rig.machine->Attach(favored);
    rig.machine->Attach(lesser);
    rig.machine->Start();
    rig.machine->RunFor(run_for);
    const auto total = static_cast<double>(rig.sim.cpu().DurationToCycles(run_for));
    result.favored_cpu = static_cast<double>(favored->total_cycles()) / total;
    result.lesser_cpu = static_cast<double>(lesser->total_cycles()) / total;
  }
  result.lesser_starved = result.lesser_cpu < 0.001;
  return result;
}

SmpResult RunSmpPipelinesScenario(const SmpParams& params) {
  RR_EXPECTS(params.num_cpus >= 1);
  RR_EXPECTS(params.num_pipelines >= 1);
  SystemConfig config;
  config.num_cpus = params.num_cpus;
  config.cpu.clock_hz = params.clock_hz;
  System system(config);
  system.sim().trace().SetEnabled(true);

  std::vector<SimThread*> consumers;
  consumers.reserve(static_cast<size_t>(params.num_pipelines));
  for (int i = 0; i < params.num_pipelines; ++i) {
    const std::string tag = std::to_string(i);
    BoundedBuffer* queue = system.CreateQueue("pipe" + tag, params.queue_bytes);
    SimThread* producer = system.Spawn(
        "producer" + tag,
        std::make_unique<ProducerWork>(queue, params.producer_cycles_per_item,
                                       RateSchedule(params.bytes_per_item)));
    SimThread* consumer = system.Spawn(
        "consumer" + tag,
        std::make_unique<ConsumerWork>(queue, params.consumer_cycles_per_byte));
    system.queues().Register(queue, producer->id(), QueueRole::kProducer);
    system.queues().Register(queue, consumer->id(), QueueRole::kConsumer);
    RR_CHECK(system.controller().AddRealTime(producer, params.producer_proportion,
                                             params.producer_period));
    system.controller().AddRealRate(consumer);
    consumers.push_back(consumer);
  }
  for (int i = 0; i < params.num_hogs; ++i) {
    SimThread* hog = system.Spawn("hog" + std::to_string(i), std::make_unique<CpuHogWork>());
    system.controller().AddMiscellaneous(hog);
  }

  system.Start();
  system.RunFor(params.run_for);

  SmpResult result;
  result.num_cpus = params.num_cpus;
  result.total_dispatches = system.machine().dispatches();
  result.dispatch_throughput_per_vsec =
      static_cast<double>(result.total_dispatches) / params.run_for.ToSeconds();
  result.migrations = system.machine().migrations();
  const auto per_core_capacity =
      static_cast<double>(system.sim().cpu().DurationToCycles(params.run_for));
  result.aggregate_user_fraction =
      static_cast<double>(system.sim().UsedAllCpus(CpuUse::kUser)) /
      (per_core_capacity * params.num_cpus);
  for (CpuId c = 0; c < params.num_cpus; ++c) {
    result.core_user_fraction.push_back(
        static_cast<double>(system.sim().cpu(c).Used(CpuUse::kUser)) / per_core_capacity);
    result.core_reserved_fraction.push_back(system.machine().ReservedFractionOn(c));
  }
  for (const SimThread* consumer : consumers) {
    result.total_consumed_bytes += consumer->progress_units();
  }
  result.quality_exceptions = system.controller().quality_exceptions();
  result.squish_events = system.controller().squish_events();
  result.trace_hash = system.sim().trace().Hash();
  return result;
}

ServerFarmResult RunServerFarmScenario(const ServerFarmParams& params) {
  RR_EXPECTS(params.num_cpus >= 1);
  // A pure-hog farm (num_pipelines == 0) is a valid configuration: it is the
  // all-rounds-gated workload bench_parallel_engine uses to isolate the parallel
  // engine's scaling from pipeline wake traffic.
  RR_EXPECTS(params.num_pipelines >= 0);
  RR_EXPECTS(params.num_hogs >= 0);
  RR_EXPECTS(2 * params.num_pipelines + params.num_hogs >= 1);
  // Period spread: many distinct rate-monotonic ranks (and EDF deadlines) so the
  // indexed run queues are exercised with real ordering work, not one bucket.
  static constexpr int64_t kPeriodSpreadMs[] = {5, 8, 10, 12, 16, 20, 25, 32, 40};
  constexpr size_t kSpread = sizeof(kPeriodSpreadMs) / sizeof(kPeriodSpreadMs[0]);

  SystemConfig config;
  config.num_cpus = params.num_cpus;
  config.cpu.clock_hz = params.clock_hz;
  config.rbs = params.rbs;
  config.machine.idle_fast_forward = params.idle_fast_forward;
  config.machine.host_threads = params.host_threads;
  config.controller = params.controller;
  config.thread_slabs = params.thread_slabs;
  System system(config);
  system.sim().trace().SetEnabled(true);
  // The farm result only reads the trace hash; at production densities the farm
  // records millions of events, so skip storing them (the fold is bit-identical).
  system.sim().trace().SetHashOnly(true);

  std::vector<SimThread*> consumers;
  consumers.reserve(static_cast<size_t>(params.num_pipelines));
  for (int i = 0; i < params.num_pipelines; ++i) {
    const std::string tag = std::to_string(i);
    BoundedBuffer* queue = system.CreateQueue("farm" + tag, params.queue_bytes);
    SimThread* producer = system.Spawn(
        "producer" + tag,
        std::make_unique<ProducerWork>(queue, params.producer_cycles_per_item,
                                       RateSchedule(params.bytes_per_item)));
    SimThread* consumer = system.Spawn(
        "consumer" + tag,
        std::make_unique<ConsumerWork>(queue, params.consumer_cycles_per_byte));
    system.queues().Register(queue, producer->id(), QueueRole::kProducer);
    system.queues().Register(queue, consumer->id(), QueueRole::kConsumer);
    const Duration period =
        Duration::Millis(kPeriodSpreadMs[static_cast<size_t>(i) % kSpread]);
    RR_CHECK(system.controller().AddRealTime(producer, params.producer_proportion, period));
    system.controller().AddRealRate(consumer);
    consumers.push_back(consumer);
  }
  for (int i = 0; i < params.num_hogs; ++i) {
    SimThread* hog = system.Spawn("hog" + std::to_string(i), std::make_unique<CpuHogWork>());
    system.controller().AddMiscellaneous(hog);
  }

  system.Start();
  system.RunFor(params.run_for);

  ServerFarmResult result;
  result.num_cpus = params.num_cpus;
  result.num_threads = 2 * params.num_pipelines + params.num_hogs;
  result.total_dispatches = system.machine().dispatches();
  result.context_switches = system.machine().context_switches();
  result.migrations = system.machine().migrations();
  result.idle_suspensions = system.machine().idle_suspensions();
  result.parallel_rounds = system.machine().parallel_rounds();
  result.mailbox_rounds = system.machine().mailbox_rounds();
  const auto per_core_capacity =
      static_cast<double>(system.sim().cpu().DurationToCycles(params.run_for));
  result.aggregate_user_fraction =
      static_cast<double>(system.sim().UsedAllCpus(CpuUse::kUser)) /
      (per_core_capacity * params.num_cpus);
  for (const SimThread* consumer : consumers) {
    result.total_consumed_bytes += consumer->progress_units();
  }
  result.squish_events = system.controller().squish_events();
  result.quality_exceptions = system.controller().quality_exceptions();
  result.trace_hash = system.sim().trace().Hash();
  return result;
}

MediaPipelineResult RunMediaPipelineScenario(Duration run_for) {
  // source -> q0 -> parse -> q1 -> decode -> q2 -> render. The decoder costs 10x the
  // other stages per byte; "our controller automatically identifies that one stage of
  // the pipeline has vastly different CPU requirements than the others (the video
  // decoder), even though all the processes have the same priority."
  System system{};

  BoundedBuffer* q0 = system.CreateQueue("q0", 8'000);
  BoundedBuffer* q1 = system.CreateQueue("q1", 8'000);
  BoundedBuffer* q2 = system.CreateQueue("q2", 8'000);

  // Source: a real-time reservation producing a steady 80 kB/s compressed stream
  // (5% of the CPU at 100k cycles/item, 400 bytes/item). Stage needs: parse and render
  // 20 ppt each, decode 200 ppt — all above the allocation floor, so the controller's
  // estimates, not the floor, determine every allocation.
  RateSchedule steady(400.0);  // bytes per item.
  SimThread* source =
      system.Spawn("source", std::make_unique<ProducerWork>(q0, 100'000, steady));
  SimThread* parse =
      system.Spawn("parse", std::make_unique<PipelineStageWork>(q0, q1, /*cycles_per_byte=*/100,
                                                                /*amplification=*/1.0,
                                                                /*chunk_bytes=*/400));
  SimThread* decode =
      system.Spawn("decode", std::make_unique<PipelineStageWork>(q1, q2, /*cycles_per_byte=*/1'000,
                                                                 /*amplification=*/1.0,
                                                                 /*chunk_bytes=*/400));
  SimThread* render =
      system.Spawn("render", std::make_unique<ConsumerWork>(q2, /*cycles_per_byte=*/100));

  system.queues().Register(q0, source->id(), QueueRole::kProducer);
  system.queues().Register(q0, parse->id(), QueueRole::kConsumer);
  system.queues().Register(q1, parse->id(), QueueRole::kProducer);
  system.queues().Register(q1, decode->id(), QueueRole::kConsumer);
  system.queues().Register(q2, decode->id(), QueueRole::kProducer);
  system.queues().Register(q2, render->id(), QueueRole::kConsumer);

  RR_CHECK(system.controller().AddRealTime(source, Proportion::Ppt(50),
                                           Duration::Millis(10)));
  system.controller().AddRealRate(parse);
  system.controller().AddRealRate(decode);
  system.controller().AddRealRate(render);

  system.Start();
  system.RunFor(run_for);

  MediaPipelineResult result;
  const auto total = static_cast<double>(system.sim().cpu().DurationToCycles(run_for));
  result.parse_ppt = static_cast<double>(parse->total_cycles()) / total * 1000.0;
  result.decode_ppt = static_cast<double>(decode->total_cycles()) / total * 1000.0;
  result.render_ppt = static_cast<double>(render->total_cycles()) / total * 1000.0;
  result.max_fill_deviation =
      std::max({std::abs(q0->FillFraction() - 0.5), std::abs(q1->FillFraction() - 0.5),
                std::abs(q2->FillFraction() - 0.5)});
  result.rendered_bytes = render->progress_units();
  return result;
}

}  // namespace realrate
