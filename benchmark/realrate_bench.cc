// realrate_bench: runs one workload of the realrate benchmark and prints the
// per-repetition samples of its metrics, its trace hashes and its correctness
// checks as one JSON object on stdout. benchmark/run.py reduces the samples to
// medians; README.md explains every workload and metric.
//
//   realrate_bench --workload <name> [--seed N] [--trace 0|1] [--seconds S] [--reps N]
//   realrate_bench --smoke [--workload <name>]
//
// Each invocation generates its input from the seed before anything is timed,
// runs the production entry point on that input as the reference, then repeats
// measured runs until both --reps and --seconds are satisfied. A repetition is
// one run of the production stack (System) at one host thread, which yields
// the end-to-end metrics (--trace 0). With --trace 1 it adds a run on
// TracedStack (timed_stack.h), and on workloads with more host threads a traced
// run at that count, which yield the per-layer metrics. Every measured run must
// reproduce the reference's trace hash.
//
// --smoke runs every workload (or the one named) in both modes at 1/50 of its
// horizon with one repetition and prints one status line per run.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "cluster/cluster_farm.h"
#include "exp/scenarios.h"
#include "exp/system.h"
#include "timed_stack.h"
#include "util/assert.h"
#include "workloads/arrivals.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/rate_schedule.h"
#include "workloads/web_farm.h"

#ifndef REALRATE_BENCH_BUILD_TYPE
#define REALRATE_BENCH_BUILD_TYPE "unknown"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#undef REALRATE_BENCH_SANITIZED
#define REALRATE_BENCH_SANITIZED 1
#endif
#ifndef REALRATE_BENCH_SANITIZED
#define REALRATE_BENCH_SANITIZED 0
#endif

namespace realrate::bench {
namespace {

enum class Kind { kFarm, kPipelines, kCluster };

struct Workload {
  const char* name;
  Kind kind;
  double load;          // Offered load as a multiple of saturation capacity.
  int64_t horizon_ms;   // Virtual time simulated.
  int64_t stream_ms;    // Span the arrival stream is generated for; cut at horizon_ms.
  int host_threads;
};

// README.md records why each workload is in the set.
constexpr Workload kWorkloads[] = {
    {"farm_steady", Kind::kFarm, 0.75, 300'000, 300'000, 1},
    {"farm_overload", Kind::kFarm, 1.5, 150'000, 150'000, 1},
    {"dense_pipelines", Kind::kPipelines, 0.0, 10'000, 0, 1},
    // The first 60 s of farm_steady's stream.
    {"farm_parallel", Kind::kFarm, 0.75, 60'000, 300'000, 4},
    {"cluster16", Kind::kCluster, 0.9, 5'000, 5'000, 4},
};

constexpr uint64_t kDefaultSeed = 99;
constexpr int64_t kSmokeDivisor = 50;
constexpr int64_t kDispatchTickMs = 1;  // MachineConfig::dispatch_interval.

// ---------------------------------------------------------------------------
// Workload configuration. Each mirrors a production entry point's wiring; the
// trace-hash check against that entry point proves the mirror exact.
// ---------------------------------------------------------------------------

// bench_web_farm's farm: 4 cores, 8 workers, 1 acceptor, 400 MHz.
WebFarmParams FarmParams(const Workload& w, int host_threads, int64_t divisor) {
  WebFarmParams p;
  p.run_for = Duration::Millis(w.horizon_ms / divisor);
  p.host_threads = host_threads;
  return p;
}

// bench_cluster's shape: 16 machines of 2 cores and 4 workers, feedback router.
ClusterFarmParams ClusterParams(const Workload& w, int host_threads, int64_t divisor) {
  ClusterFarmParams p;
  p.num_machines = 16;
  p.farm.num_cpus = 2;
  p.farm.num_workers = 4;
  p.farm.run_for = Duration::Millis(w.horizon_ms / divisor);
  p.farm.host_threads = host_threads;
  return p;
}

// 1023 producer -> consumer pipelines at 1 ppt plus 2 hogs on 2 cores: 2048
// threads, enough to keep RbsScheduler's indexed pick and the controller busy.
ServerFarmParams PipelineParams(const Workload& w, int64_t divisor) {
  ServerFarmParams p;
  p.num_cpus = 2;
  p.num_pipelines = 1023;
  p.num_hogs = 2;
  p.producer_proportion = Proportion::Ppt(1);
  p.run_for = Duration::Millis(w.horizon_ms / divisor);
  return p;
}

// RunWebFarmScenario's System configuration.
SystemConfig FarmConfig(const WebFarmParams& p) {
  SystemConfig config;
  config.num_cpus = p.num_cpus;
  config.cpu.clock_hz = p.clock_hz;
  config.rbs = p.rbs;
  config.controller = p.controller;
  config.machine.idle_fast_forward = p.idle_fast_forward;
  config.machine.host_threads = p.host_threads;
  config.thread_slabs = p.thread_slabs;
  return config;
}

WebFarmBuild FarmBuild(const WebFarmParams& p, const std::vector<RequestRecord>& records) {
  WebFarmBuild build;
  build.tag = "web";
  build.num_workers = p.num_workers;
  build.num_acceptors = p.num_acceptors;
  build.accept_cycles = p.accept_cycles;
  build.listen_queue_bytes = p.listen_queue_bytes;
  build.worker_queue_bytes = p.worker_queue_bytes;
  build.clock_hz = p.clock_hz;
  build.records = records;
  return build;
}

// RunServerFarmScenario's System configuration.
SystemConfig PipelineConfig(const ServerFarmParams& p) {
  SystemConfig config;
  config.num_cpus = p.num_cpus;
  config.cpu.clock_hz = p.clock_hz;
  config.rbs = p.rbs;
  config.machine.idle_fast_forward = p.idle_fast_forward;
  config.machine.host_threads = p.host_threads;
  config.controller = p.controller;
  config.thread_slabs = p.thread_slabs;
  return config;
}

// RunServerFarmScenario's spawn sequence, on System or TracedStack.
template <class Stack>
void SpawnPipelines(Stack& stack, const ServerFarmParams& p) {
  static constexpr int64_t kPeriodSpreadMs[] = {5, 8, 10, 12, 16, 20, 25, 32, 40};
  constexpr size_t kSpread = sizeof(kPeriodSpreadMs) / sizeof(kPeriodSpreadMs[0]);
  for (int i = 0; i < p.num_pipelines; ++i) {
    const std::string tag = std::to_string(i);
    BoundedBuffer* queue = stack.CreateQueue("farm" + tag, p.queue_bytes);
    SimThread* producer = stack.Spawn(
        "producer" + tag, std::make_unique<ProducerWork>(queue, p.producer_cycles_per_item,
                                                         RateSchedule(p.bytes_per_item)));
    SimThread* consumer = stack.Spawn(
        "consumer" + tag, std::make_unique<ConsumerWork>(queue, p.consumer_cycles_per_byte));
    stack.queues().Register(queue, producer->id(), QueueRole::kProducer);
    stack.queues().Register(queue, consumer->id(), QueueRole::kConsumer);
    const Duration period = Duration::Millis(kPeriodSpreadMs[static_cast<size_t>(i) % kSpread]);
    RR_CHECK(stack.controller().AddRealTime(producer, p.producer_proportion, period));
    stack.controller().AddRealRate(consumer);
  }
  for (int i = 0; i < p.num_hogs; ++i) {
    SimThread* hog = stack.Spawn("hog" + std::to_string(i), std::make_unique<CpuHogWork>());
    stack.controller().AddMiscellaneous(hog);
  }
}

// ---------------------------------------------------------------------------
// One run's outcome.
// ---------------------------------------------------------------------------

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<uint64_t> hashes;  // One per machine.
  // Requests; on dense_pipelines a request is one producer item.
  int64_t offered = 0;
  int64_t served = 0;
  int64_t drops = 0;
  double goodput = 0.0;  // served / offered; bytes popped / pushed on dense_pipelines.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t quality_exceptions = 0;
  int64_t squish_events = 0;
  int64_t parallel_rounds = 0;
  int64_t mailbox_rounds = 0;
  // Single-machine internals (zero on cluster16, whose nodes are out of reach).
  double user_frac = 0.0;
  int64_t ticks = 0;
  int64_t dispatches = 0;
  int64_t context_switches = 0;
  int64_t idle_suspensions = 0;
  int64_t migrations = 0;
  int64_t events = 0;
  int64_t dirty_samples = 0;
  int64_t clean_samples = 0;
  int64_t controlled = 0;
  int64_t pushed_bytes = 0;
  int64_t popped_bytes = 0;
  int64_t queue_ops = 0;
  int64_t full_hits = 0;
  int64_t empty_hits = 0;
  // cluster16.
  int64_t epoch_fences = 0;
  int64_t rebalanced = 0;
  double imbalance = 0.0;
  std::vector<int64_t> served_per_machine;
  // TracedStack runs only.
  bool timed = false;
  SchedSpans spans;
  int64_t controller_calls = 0;
  int64_t controller_ns = 0;
};

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

template <class Stack>
void ReadStack(Stack& stack, Duration horizon, Rep& r) {
  Machine& m = stack.machine();
  r.hashes = {stack.sim().trace().Hash()};
  r.ticks = m.ticks();
  r.dispatches = m.dispatches();
  r.context_switches = m.context_switches();
  r.idle_suspensions = m.idle_suspensions();
  r.migrations = m.migrations();
  r.parallel_rounds = m.parallel_rounds();
  r.mailbox_rounds = m.mailbox_rounds();
  r.events = static_cast<int64_t>(stack.sim().events_processed());
  r.user_frac = Ratio(stack.sim().UsedAllCpus(CpuUse::kUser),
                      stack.sim().cpu().DurationToCycles(horizon) * m.num_cpus());
  const FeedbackAllocator& c = stack.controller();
  r.quality_exceptions = c.quality_exceptions();
  r.squish_events = c.squish_events();
  r.dirty_samples = c.dirty_samples();
  r.clean_samples = c.clean_samples();
  r.controlled = static_cast<int64_t>(c.controlled_count());
  for (const BoundedBuffer* q : stack.queues().AllQueues()) {
    r.pushed_bytes += q->total_pushed();
    r.popped_bytes += q->total_popped();
    r.queue_ops += static_cast<int64_t>(q->change_epoch());
    r.full_hits += q->full_hits();
    r.empty_hits += q->empty_hits();
  }
  if constexpr (std::is_same_v<Stack, TracedStack>) {
    r.timed = true;
    r.spans = stack.Spans();
    r.controller_calls = stack.controller_calls();
    r.controller_ns = stack.controller_ns();
  }
}

// Setup is System + BuildWebFarm + Start; the run is RunFor.
template <class Stack>
Rep FarmRun(const WebFarmParams& p, const std::vector<RequestRecord>& records) {
  Rep r;
  const int64_t t0 = NowNs();
  Stack stack(FarmConfig(p));
  stack.sim().trace().SetEnabled(true);
  stack.sim().trace().SetHashOnly(true);
  std::unique_ptr<WebFarmInstance> farm =
      BuildWebFarm(FarmBuild(p, records), stack.sim(), stack.threads(), stack.queues(),
                   stack.machine(), &stack.controller());
  stack.Start();
  const int64_t t1 = NowNs();
  stack.RunFor(p.run_for);
  const int64_t t2 = NowNs();
  r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  r.run_s = static_cast<double>(t2 - t1) * 1e-9;
  ReadStack(stack, p.run_for, r);
  r.offered = static_cast<int64_t>(records.size());
  r.served = farm->served();
  r.drops = farm->listen_drops + farm->dispatch_drops();
  r.goodput = Ratio(r.served, r.offered);
  if (!farm->latencies.empty()) {
    r.p50_ms = farm->latencies.Percentile(50.0) * 1e3;
    r.p99_ms = farm->latencies.Percentile(99.0) * 1e3;
  }
  return r;
}

// Setup is System + the spawns + Start; the run is RunFor.
template <class Stack>
Rep PipelineRun(const ServerFarmParams& p) {
  Rep r;
  const int64_t t0 = NowNs();
  Stack stack(PipelineConfig(p));
  stack.sim().trace().SetEnabled(true);
  stack.sim().trace().SetHashOnly(true);
  SpawnPipelines(stack, p);
  stack.Start();
  const int64_t t1 = NowNs();
  stack.RunFor(p.run_for);
  const int64_t t2 = NowNs();
  r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  r.run_s = static_cast<double>(t2 - t1) * 1e-9;
  ReadStack(stack, p.run_for, r);
  const auto item_bytes = static_cast<int64_t>(p.bytes_per_item);
  r.offered = r.pushed_bytes / item_bytes;
  r.served = r.popped_bytes / item_bytes;
  r.goodput = Ratio(r.popped_bytes, r.pushed_bytes);
  return r;
}

Rep FromClusterResult(const ClusterFarmResult& res) {
  Rep r;
  r.hashes = res.machine_trace_hashes;
  r.offered = res.offered;
  r.served = res.served;
  r.drops = res.listen_drops + res.dispatch_drops;
  r.goodput = Ratio(r.served, r.offered);
  r.p50_ms = res.p50_ms;
  r.p99_ms = res.p99_ms;
  r.epoch_fences = res.epoch_fences;
  r.rebalanced = res.rebalanced;
  r.imbalance = res.imbalance_ratio;
  r.served_per_machine = res.served_per_machine;
  return r;
}

// The cluster is timed as a black box: setup is the scenario at a one-epoch
// horizon, the run is the whole scenario.
Rep ClusterRun(const ClusterFarmParams& p) {
  ClusterFarmParams setup = p;
  setup.farm.run_for = p.epoch;
  const int64_t t0 = NowNs();
  RunClusterFarmScenario(setup);
  const int64_t t1 = NowNs();
  const ClusterFarmResult res = RunClusterFarmScenario(p);
  const int64_t t2 = NowNs();
  Rep r = FromClusterResult(res);
  r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  r.run_s = static_cast<double>(t2 - t1) * 1e-9;
  return r;
}

// ---------------------------------------------------------------------------
// A workload bound to one seeded input.
// ---------------------------------------------------------------------------

class Job {
 public:
  Job(const Workload& w, uint64_t seed, int64_t divisor) : w_(w), divisor_(divisor) {
    if (w.kind == Kind::kPipelines) {
      return;  // The pipeline farm has no stochastic input.
    }
    ArrivalConfig arrivals;
    arrivals.seed = seed;
    arrivals.requests_per_sec =
        w.load * (w.kind == Kind::kCluster ? ClusterFarmCapacityRps(ClusterParams(w, 1, divisor))
                                           : WebFarmCapacityRps(FarmParams(w, 1, divisor)));
    records_ = GenerateRequests(arrivals, Duration::Millis(w.stream_ms / divisor));
    const Duration horizon = Duration::Millis(w.horizon_ms / divisor);
    records_.erase(std::find_if(records_.begin(), records_.end(),
                                [horizon](const RequestRecord& r) { return r.arrival >= horizon; }),
                   records_.end());
  }

  // Simulated core-ticks per run: the tick_rate numerator.
  double CoreTicks() const {
    const double ticks = static_cast<double>(w_.horizon_ms / divisor_ / kDispatchTickMs);
    switch (w_.kind) {
      case Kind::kFarm:
        return ticks * FarmParams(w_, 1, divisor_).num_cpus;
      case Kind::kPipelines:
        return ticks * PipelineParams(w_, divisor_).num_cpus;
      case Kind::kCluster: {
        const ClusterFarmParams p = ClusterParams(w_, 1, divisor_);
        return ticks * p.farm.num_cpus * p.num_machines;
      }
    }
    return 0.0;
  }

  // The production entry point on this input, at the workload's host
  // threads: the reference outcome.
  Rep Reference() const {
    const int host_threads = w_.host_threads;
    Rep r;
    switch (w_.kind) {
      case Kind::kFarm: {
        WebFarmParams p = FarmParams(w_, host_threads, divisor_);
        p.replay = records_;
        const WebFarmResult res = RunWebFarmScenario(p);
        r.hashes = {res.trace_hash};
        r.offered = res.offered;
        r.served = res.served;
        r.drops = res.listen_drops + res.dispatch_drops;
        r.parallel_rounds = res.parallel_rounds;
        r.mailbox_rounds = res.mailbox_rounds;
        return r;
      }
      case Kind::kPipelines: {
        ServerFarmParams p = PipelineParams(w_, divisor_);
        p.host_threads = host_threads;
        const ServerFarmResult res = RunServerFarmScenario(p);
        r.hashes = {res.trace_hash};
        r.served = res.total_consumed_bytes / static_cast<int64_t>(p.bytes_per_item);
        r.parallel_rounds = res.parallel_rounds;
        r.mailbox_rounds = res.mailbox_rounds;
        return r;
      }
      case Kind::kCluster:
        return FromClusterResult(RunClusterFarmScenario(Cluster(host_threads)));
    }
    return r;
  }

  // One measured run; `traced` selects TracedStack (single-machine workloads).
  Rep Measure(int host_threads, bool traced) const {
    switch (w_.kind) {
      case Kind::kFarm: {
        const WebFarmParams p = FarmParams(w_, host_threads, divisor_);
        return traced ? FarmRun<TracedStack>(p, records_) : FarmRun<System>(p, records_);
      }
      case Kind::kPipelines: {
        ServerFarmParams p = PipelineParams(w_, divisor_);
        p.host_threads = host_threads;
        return traced ? PipelineRun<TracedStack>(p) : PipelineRun<System>(p);
      }
      case Kind::kCluster:
        return ClusterRun(Cluster(host_threads));
    }
    return Rep{};
  }

 private:
  ClusterFarmParams Cluster(int host_threads) const {
    ClusterFarmParams p = ClusterParams(w_, host_threads, divisor_);
    p.farm.replay = records_;
    return p;
  }

  const Workload& w_;
  const int64_t divisor_;
  std::vector<RequestRecord> records_;
};

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

// Whether a metric is read off the host clock or is a pure function of the
// simulated schedule (and so repeats exactly for a given seed).
enum class Source { kHost, kSim };

// How run.py and compare.py reduce a metric's samples to one value.
enum class Reduce { kMedian, kMax };

class Samples {
 public:
  void Add(const std::string& name, const char* unit, Source source, double value,
           Reduce reduce = Reduce::kMedian) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.values.push_back(value);
        return;
      }
    }
    entries_.push_back(Entry{name, unit, source, reduce, {value}});
  }

  void Print(std::FILE* out) const {
    std::fprintf(out, "{");
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(out,
                   "%s\"%s\": {\"unit\": \"%s\", \"kind\": \"%s\", \"reduce\": \"%s\", "
                   "\"samples\": [",
                   i == 0 ? "" : ", ", e.name.c_str(), e.unit,
                   e.source == Source::kHost ? "host" : "sim",
                   e.reduce == Reduce::kMax ? "max" : "median");
      for (size_t j = 0; j < e.values.size(); ++j) {
        std::fprintf(out, "%s%.17g", j == 0 ? "" : ", ", e.values[j]);
      }
      std::fprintf(out, "]}");
    }
    std::fprintf(out, "}");
  }

 private:
  struct Entry {
    std::string name;
    const char* unit;
    Source source;
    Reduce reduce;
    std::vector<double> values;
  };
  std::vector<Entry> entries_;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Checks {
 public:
  // Records one evaluation of check `name`; the first failure's detail is kept.
  void Expect(bool ok, const std::string& name, const std::string& detail) {
    if (!ok) {
      ++failed_;
    }
    for (Check& c : checks_) {
      if (c.name == name) {
        if (c.ok && !ok) {
          c.ok = false;
          c.detail = detail;
        }
        return;
      }
    }
    checks_.push_back(Check{name, ok, ok ? "" : detail});
  }
  int failed() const { return failed_; }
  const std::vector<Check>& all() const { return checks_; }

 private:
  std::vector<Check> checks_;
  int failed_ = 0;
};

std::string Hex(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string HashList(const std::vector<uint64_t>& hashes) {
  std::string s;
  for (uint64_t h : hashes) {
    s += (s.empty() ? "" : " ") + Hex(h);
  }
  return s;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

// Throughput is reduced to the fastest repetition: other work on the host only
// ever adds wall time, and on a shared host it comes in episodes that slow
// whole runs (README.md, "Noise").
void EndToEnd(const Job& job, const Rep& r, Samples& out) {
  out.Add("tick_rate", "core-ticks/s", Source::kHost, job.CoreTicks() / r.run_s, Reduce::kMax);
  out.Add("served_rate", "req/s", Source::kHost, static_cast<double>(r.served) / r.run_s,
          Reduce::kMax);
  out.Add("setup_s", "s", Source::kHost, r.setup_s);
  out.Add("goodput_frac", "ratio", Source::kSim, r.goodput);
}

// Host time the spans leave of a traced run: the machine's own time.
double SelfNs(const Rep& r) {
  return r.run_s * 1e9 - static_cast<double>(r.spans.SchedNs() + r.spans.work_ns + r.controller_ns);
}

// The per-layer view of one run. Time metrics of untimed runs (cluster16) are 0.
void PerLayer(const Rep& r, Samples& out) {
  const SchedSpans& s = r.spans;
  const double wall_ns = r.timed ? r.run_s * 1e9 : 0.0;
  auto count = [&](const char* name, int64_t v) {
    out.Add(name, "count", Source::kSim, static_cast<double>(v));
  };
  auto frac = [&](const char* name, double part, double whole) {
    out.Add(name, "ratio", Source::kSim, Ratio(part, whole));
  };
  auto ns_per = [&](const char* name, double ns, double n) {
    out.Add(name, "ns", Source::kHost, Ratio(ns, n));
  };
  auto share = [&](const char* name, double ns) {
    out.Add(name, "ratio", Source::kHost, Ratio(ns, wall_ns));
  };

  // sched: RbsScheduler, through TimedScheduler.
  count("sched.pick.calls", s.pick_calls);
  ns_per("sched.pick.ns", s.pick_ns, s.pick_calls);
  share("sched.pick.share", s.pick_ns);
  frac("sched.pick.idle_frac", s.pick_idle, s.pick_calls);
  count("sched.tick.calls", s.tick_calls);
  ns_per("sched.tick.ns", s.tick_ns, s.tick_calls);
  share("sched.tick.share", s.tick_ns);
  count("sched.tick.skipped", s.ticks_skipped);
  share("sched.grant.share", s.grant_ns);
  ns_per("sched.account.ns", s.account_ns, s.account_calls);
  share("sched.account.share", s.account_ns);
  share("sched.state.share", s.state_ns);
  share("sched.share", s.SchedNs());
  count("sched.throttles", s.throttles);
  count("sched.wakes", s.wakes);
  count("sched.blocks", s.blocks);

  // work: work models and the queue operations they make.
  count("work.run.calls", s.work_calls);
  ns_per("work.run.ns", s.work_ns, s.work_calls);
  share("work.run.share", s.work_ns);
  frac("work.used_frac", s.used_cycles, s.granted_cycles);

  // queue: BoundedBuffer counters over every queue of the machine.
  count("queue.ops", r.queue_ops);
  frac("queue.full_frac", r.full_hits, r.queue_ops);
  frac("queue.empty_frac", r.empty_hits, r.queue_ops);
  frac("keepup_frac", r.popped_bytes, r.pushed_bytes);

  // core: FeedbackAllocator::RunOnce.
  count("core.runonce.calls", r.controller_calls);
  out.Add("core.runonce.us", "us", Source::kHost,
          Ratio(r.controller_ns * 1e-3, r.controller_calls));
  ns_per("core.runonce.ns_per_thread", r.controller_ns, r.controller_calls * r.controlled);
  share("core.runonce.share", r.controller_ns);
  frac("core.dirty_frac", r.dirty_samples, r.dirty_samples + r.clean_samples);
  count("core.squish_events", r.squish_events);

  // machine: event queue, tick prologue, trace fold, wakes, injector, barrier.
  const double self_ns = r.timed ? SelfNs(r) : 0.0;
  share("machine.self.share", self_ns);
  ns_per("machine.self.ns_per_event", self_ns, r.events);
  count("sim.events", r.events);
  count("machine.ticks", r.ticks);
  count("machine.dispatches", r.dispatches);
  count("machine.context_switches", r.context_switches);
  count("machine.idle_suspensions", r.idle_suspensions);
  count("machine.migrations", r.migrations);
  out.Add("cpu.user_frac", "ratio", Source::kSim, r.user_frac);

  // parallel: rounds fanned out across host threads.
  count("parallel.rounds", r.parallel_rounds);
  count("parallel.mailbox_rounds", r.mailbox_rounds);
  frac("parallel.fanout_frac", r.parallel_rounds, r.ticks);

  // cluster: counts from RunClusterFarmScenario's result.
  count("cluster.epoch_fences", r.epoch_fences);
  count("cluster.rebalanced", r.rebalanced);
  out.Add("cluster.imbalance", "ratio", Source::kSim, r.imbalance);

  // The simulated outcome.
  out.Add("lat_p50_ms", "ms", Source::kSim, r.p50_ms);
  out.Add("lat_p99_ms", "ms", Source::kSim, r.p99_ms);
  count("lat_samples", r.served);
  frac("drop_frac", r.drops, r.offered);
  count("quality_exceptions", r.quality_exceptions);
}

// ---------------------------------------------------------------------------
// Running a workload.
// ---------------------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = kDefaultSeed;
  bool trace = false;
  double seconds = 0.0;
  int reps = 3;
  int64_t divisor = 1;
};

struct Outcome {
  Samples samples;
  Checks checks;
  std::vector<uint64_t> hashes;
  int attempted = 0;
  int reps = 0;
};

// Every run must reproduce the reference's schedule and outcome.
void ExpectSame(const Rep& ref, const Rep& run, const char* what, Checks& checks) {
  checks.Expect(run.hashes == ref.hashes, std::string(what) + "_hash",
                "hash " + HashList(run.hashes) + " != " + HashList(ref.hashes));
  checks.Expect(run.served == ref.served && run.drops == ref.drops, std::string(what) + "_outcome",
                "served/drops " + std::to_string(run.served) + "/" + std::to_string(run.drops) +
                    " != " + std::to_string(ref.served) + "/" + std::to_string(ref.drops));
}

Outcome RunJob(const Options& o) {
  const Workload& w = *o.workload;
  const Job job(w, o.seed, o.divisor);
  const int ht = w.host_threads;
  Outcome out;

  const Rep ref = job.Reference();
  ++out.attempted;
  out.hashes = ref.hashes;
  out.checks.Expect(ref.served > 0, "serves_requests", "the reference run served nothing");
  if (w.kind == Kind::kFarm && ht > 1) {
    out.checks.Expect(ref.parallel_rounds > 0 && ref.mailbox_rounds > 0, "parallel_engine_used",
                      "parallel_rounds " + std::to_string(ref.parallel_rounds) +
                          ", mailbox_rounds " + std::to_string(ref.mailbox_rounds));
  }
  if (w.kind == Kind::kCluster) {
    const bool all_serve =
        !ref.served_per_machine.empty() &&
        std::all_of(ref.served_per_machine.begin(), ref.served_per_machine.end(),
                    [](int64_t s) { return s > 0; });
    out.checks.Expect(all_serve, "every_machine_serves", "a cluster machine served nothing");
  }

  // Measured runs use one host thread: at more, wall time on a shared host is
  // dominated by host-thread wake-up latency and swings too far between runs to
  // bound (README.md, "Noise"). The workload's own host-thread count is run in
  // the traced repetitions, next to a one-thread run on the same input, and
  // enters the metrics only as ratios of the two.
  const bool timed = w.kind != Kind::kCluster;  // cluster16's nodes cannot be wrapped.
  std::vector<Rep> plain;     // Untraced, one host thread.
  std::vector<Rep> traced;    // Traced, one host thread (plain runs on cluster16).
  std::vector<Rep> traced_n;  // Traced, the workload's host threads (ht > 1 only).
  auto measure = [&](std::vector<Rep>& into, int host_threads, bool with_spans,
                     const char* what) {
    into.push_back(job.Measure(host_threads, with_spans));
    ExpectSame(ref, into.back(), what, out.checks);
    ++out.attempted;
  };
  const int64_t start = NowNs();
  while (out.reps < o.reps || static_cast<double>(NowNs() - start) * 1e-9 < o.seconds) {
    measure(plain, 1, false, "matches_entry_point");
    if (o.trace) {
      if (timed) {
        measure(traced, 1, true, "traced_matches_entry_point");
      } else {
        traced.push_back(plain.back());
      }
      if (ht > 1) {
        measure(traced_n, ht, timed, "host_threads_n_matches_entry_point");
      }
    }
    ++out.reps;
  }

  if (!o.trace) {
    for (const Rep& r : plain) {
      EndToEnd(job, r, out.samples);
    }
    out.samples.Add("peak_rss_mb", "MB", Source::kHost, PeakRssMb());
    return out;
  }

  const std::vector<Rep>& layered = ht > 1 ? traced_n : traced;
  for (const Rep& r : layered) {
    PerLayer(r, out.samples);
  }
  auto median_of = [](const std::vector<Rep>& reps, auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) {
      v.push_back(field(r));
    }
    return Median(v);
  };
  auto wall = [](const Rep& r) { return r.run_s; };
  out.samples.Add("trace.overhead_frac", "ratio", Source::kHost,
                  timed ? median_of(traced, wall) / median_of(plain, wall) - 1.0 : 0.0);
  double speedup = 1.0;
  double round_overhead_us = 0.0;
  if (ht > 1) {
    speedup = median_of(traced, wall) / median_of(traced_n, wall);
    const double rounds = static_cast<double>(traced_n.front().parallel_rounds);
    if (timed && rounds > 0) {
      round_overhead_us =
          (median_of(traced_n, SelfNs) - median_of(traced, SelfNs)) / rounds * 1e-3;
    }
  }
  out.samples.Add("parallel.speedup", "ratio", Source::kHost, speedup);
  out.samples.Add("parallel.round_overhead_us", "us", Source::kHost, round_overhead_us);
  return out;
}

void PrintJson(const Options& o, const Outcome& out) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"divisor\": %lld, ",
              o.workload->name, static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              static_cast<long long>(o.divisor));
  std::printf("\"build_type\": \"%s\", \"sanitized\": %s, \"host_cpus\": %u, "
              "\"host_threads\": %d, ",
              REALRATE_BENCH_BUILD_TYPE, REALRATE_BENCH_SANITIZED ? "true" : "false",
              std::thread::hardware_concurrency(), o.workload->host_threads);
  std::printf("\"reps\": %d, \"attempted\": %d, \"failed\": %d, \"hashes\": [", out.reps,
              out.attempted, out.checks.failed());
  for (size_t i = 0; i < out.hashes.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", Hex(out.hashes[i]).c_str());
  }
  std::printf("], \"checks\": [");
  const std::vector<Check>& checks = out.checks.all();
  for (size_t i = 0; i < checks.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}", i == 0 ? "" : ", ",
                checks[i].name.c_str(), checks[i].ok ? "true" : "false",
                checks[i].detail.c_str());
  }
  std::printf("], \"metrics\": ");
  out.samples.Print(stdout);
  std::printf("}\n");
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

template <class T>
bool ParseNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: realrate_bench --workload <name> [--seed N] [--trace 0|1]"
               " [--seconds S] [--reps N]\n"
               "       realrate_bench --smoke [--workload <name>]\n"
               "workloads:",
               error);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Smoke(const Options& base) {
  int failures = 0;
  for (const Workload& w : kWorkloads) {
    if (base.workload != nullptr && base.workload != &w) {
      continue;
    }
    for (const bool trace : {false, true}) {
      Options o = base;
      o.workload = &w;
      o.trace = trace;
      o.reps = 1;
      o.seconds = 0.0;
      o.divisor = kSmokeDivisor;
      const Outcome out = RunJob(o);
      std::printf("smoke %-16s trace=%d runs=%d %s\n", w.name, trace ? 1 : 0, out.attempted,
                  out.checks.failed() == 0 ? "ok" : "FAILED");
      for (const Check& c : out.checks.all()) {
        if (!c.ok) {
          std::printf("  check %s failed: %s\n", c.name.c_str(), c.detail.c_str());
        }
      }
      failures += out.checks.failed();
    }
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options o;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage("missing value after an option, or unknown option");
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = FindWorkload(value);
      if (o.workload == nullptr) {
        return Usage("unknown workload");
      }
    } else if (arg == "--seed") {
      if (!ParseNumber(value, &o.seed)) {
        return Usage("--seed takes a non-negative integer");
      }
    } else if (arg == "--trace") {
      int trace = 0;
      if (!ParseNumber(value, &trace) || (trace != 0 && trace != 1)) {
        return Usage("--trace takes 0 or 1");
      }
      o.trace = trace == 1;
    } else if (arg == "--seconds") {
      if (!ParseNumber(value, &o.seconds) || !(o.seconds >= 0.0) || o.seconds > 3600.0) {
        return Usage("--seconds takes a number in [0, 3600]");
      }
    } else if (arg == "--reps") {
      if (!ParseNumber(value, &o.reps) || o.reps < 1 || o.reps > 1000) {
        return Usage("--reps takes an integer in [1, 1000]");
      }
    } else {
      return Usage("unknown option");
    }
  }
#ifdef M_MMAP_THRESHOLD
  // glibc adapts its mmap threshold to the blocks a process frees, so whether a
  // repetition's buffers reuse heap memory or page-fault in fresh mappings
  // depended on the allocation history, which differs by seed: setup times
  // came out bimodal. Fixed thresholds that keep freed memory in the heap make
  // every repetition after the first reuse it (blocks above 32 MiB are still
  // mapped fresh each time).
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  if (smoke) {
    return Smoke(o);
  }
  if (o.workload == nullptr) {
    return Usage("--workload is required");
  }
  const Outcome out = RunJob(o);
  PrintJson(o, out);
  return out.checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace realrate::bench

int main(int argc, char** argv) { return realrate::bench::Main(argc, argv); }
