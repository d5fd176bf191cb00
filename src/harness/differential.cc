#include "harness/differential.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_farm.h"
#include "exp/system.h"
#include "queue/registry.h"
#include "queue/tty.h"
#include "sched/machine.h"
#include "sim/simulator.h"
#include "task/registry.h"
#include "util/assert.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/server.h"
#include "workloads/web_farm.h"

namespace realrate {

namespace {

// Objects a built workload needs alive for the duration of the run but which no
// registry owns: the interactive editors' ttys and their typing processes, the
// open-loop request streams, and the web farms (injectors, latency samples) that
// borrow them. A deque never moves its elements, so each stream's buffer stays
// where its farm's injector points, and the streams outlive the farms.
struct WorkloadRuntime {
  std::vector<std::unique_ptr<TtyPort>> ttys;
  std::vector<std::unique_ptr<TypingProcess>> typists;
  std::deque<std::vector<RequestRecord>> streams;
  std::vector<std::unique_ptr<WebFarmInstance>> farms;
};

// Instantiates the spec's queues and threads into an already-built machine. When
// `controller` is non-null (the RBS+feedback rig) every thread is also registered
// with the controller under its paper taxonomy class; admission rejections are
// tolerated (the thread then runs unreserved), which can only happen in metamorphic
// variants that force fewer cores than the spec was generated for.
void BuildWorkload(const WorkloadSpec& spec, ThreadRegistry& threads, QueueRegistry& queues,
                   Machine& machine, FeedbackAllocator* controller,
                   WorkloadRuntime& runtime) {
  for (size_t i = 0; i < spec.pipelines.size(); ++i) {
    const PipelineSpec& p = spec.pipelines[i];
    const std::string tag = std::to_string(i);

    // Queues: q[0] is the source queue, q[j + 1] sits behind stage j.
    std::vector<BoundedBuffer*> q;
    q.push_back(queues.CreateQueue("pipe" + tag + ".q0", p.source_queue_bytes));
    for (size_t j = 0; j < p.stages.size(); ++j) {
      q.push_back(queues.CreateQueue("pipe" + tag + ".q" + std::to_string(j + 1),
                                     p.stages[j].queue_bytes));
    }
    for (BoundedBuffer* buffer : q) {
      machine.Attach(buffer);
    }

    SimThread* producer;
    if (p.paced) {
      producer = threads.Create(
          "producer" + tag,
          std::make_unique<PacedProducerWork>(q[0],
                                              std::max<int64_t>(1, static_cast<int64_t>(
                                                                       p.bytes_per_item)),
                                              p.paced_interval, p.producer_cycles_per_item));
    } else {
      producer = threads.Create(
          "producer" + tag, std::make_unique<ProducerWork>(q[0], p.producer_cycles_per_item,
                                                           BuildRateSchedule(p)));
    }
    std::vector<SimThread*> chain;
    chain.push_back(producer);
    queues.Register(q[0], producer->id(), QueueRole::kProducer);

    for (size_t j = 0; j < p.stages.size(); ++j) {
      const StageSpec& s = p.stages[j];
      SimThread* stage = threads.Create(
          "stage" + tag + "." + std::to_string(j),
          std::make_unique<PipelineStageWork>(q[j], q[j + 1], s.cycles_per_byte,
                                              /*amplification=*/1.0, s.chunk_bytes));
      queues.Register(q[j], stage->id(), QueueRole::kConsumer);
      queues.Register(q[j + 1], stage->id(), QueueRole::kProducer);
      chain.push_back(stage);
    }

    SimThread* consumer = threads.Create(
        "consumer" + tag,
        std::make_unique<ConsumerWork>(q.back(), p.consumer_cycles_per_byte));
    queues.Register(q.back(), consumer->id(), QueueRole::kConsumer);
    chain.push_back(consumer);

    for (SimThread* t : chain) {
      t->set_priority(p.priority);
      t->set_tickets(p.tickets);
      machine.Attach(t);
    }
    if (controller != nullptr) {
      if (p.paced) {
        controller->AddMiscellaneous(producer);
      } else {
        controller->AddRealTime(producer, p.producer_proportion, p.producer_period);
      }
      for (size_t j = 1; j < chain.size(); ++j) {
        controller->AddRealRate(chain[j]);
      }
    }
  }

  for (size_t i = 0; i < spec.hogs.size(); ++i) {
    const HogSpec& h = spec.hogs[i];
    SimThread* hog = threads.Create("hog" + std::to_string(i),
                                    std::make_unique<CpuHogWork>(h.cycles_per_key));
    hog->set_importance(h.importance);
    hog->set_priority(h.priority);
    hog->set_tickets(h.tickets);
    machine.Attach(hog);
    if (controller != nullptr) {
      controller->AddMiscellaneous(hog);
    }
  }

  for (size_t i = 0; i < spec.reservations.size(); ++i) {
    const ReservationSpec& r = spec.reservations[i];
    SimThread* rt = threads.Create("rt" + std::to_string(i), std::make_unique<CpuHogWork>());
    rt->set_priority(r.priority);
    rt->set_tickets(r.tickets);
    machine.Attach(rt);
    if (controller != nullptr) {
      controller->AddRealTime(rt, r.proportion, r.period);
    }
  }

  for (size_t i = 0; i < spec.aperiodics.size(); ++i) {
    const AperiodicSpec& a = spec.aperiodics[i];
    SimThread* art = threads.Create("art" + std::to_string(i), std::make_unique<CpuHogWork>());
    art->set_priority(a.priority);
    art->set_tickets(a.tickets);
    machine.Attach(art);
    if (controller != nullptr) {
      controller->AddAperiodicRealTime(art, a.proportion);
    }
  }

  for (size_t i = 0; i < spec.interactives.size(); ++i) {
    const InteractiveSpec& e = spec.interactives[i];
    runtime.ttys.push_back(std::make_unique<TtyPort>("tty" + std::to_string(i)));
    TtyPort* tty = runtime.ttys.back().get();
    machine.Attach(tty);
    SimThread* editor = threads.Create("editor" + std::to_string(i),
                                       std::make_unique<InteractiveWork>(tty, e.cycles_per_event));
    editor->set_priority(e.priority);
    editor->set_tickets(e.tickets);
    machine.Attach(editor);
    if (controller != nullptr) {
      controller->AddInteractive(editor);
    }
    runtime.typists.push_back(std::make_unique<TypingProcess>(
        machine.sim(), tty,
        TypingProcess::Config{.mean_think = e.mean_think,
                              .seed = DeriveSeed(spec.seed, 0x7777 + i)}));
    runtime.typists.back()->Start();
  }

  for (size_t i = 0; i < spec.open_loops.size(); ++i) {
    const OpenLoopSpec& ol = spec.open_loops[i];
    WebFarmBuild build;
    build.tag = "web" + std::to_string(i);
    build.num_workers = ol.num_workers;
    build.num_acceptors = ol.num_acceptors;
    build.accept_cycles = ol.accept_cycles;
    build.listen_queue_bytes = ol.listen_queue_bytes;
    build.worker_queue_bytes = ol.worker_queue_bytes;
    build.clock_hz = spec.clock_hz;
    build.priority = ol.priority;
    build.tickets = ol.tickets;
    // Always the spec's own horizon, never a per-run override: every metamorphic
    // variant must replay the identical request stream.
    build.records = runtime.streams.emplace_back(GenerateRequests(ol.arrivals, spec.run_for));
    runtime.farms.push_back(BuildWebFarm(std::move(build), machine.sim(), threads, queues,
                                         machine, controller));
  }
}

void FillOutcome(RunOutcome& outcome, const Simulator& sim, const Machine& machine,
                 const ThreadRegistry& threads, const WorkloadRuntime& runtime,
                 const InvariantOracle& oracle, const WorkloadSpec& spec,
                 const RunOptions& options) {
  outcome.num_cpus = sim.num_cpus();
  outcome.trace_hash = sim.trace().Hash();
  for (size_t use = 0; use < outcome.cycles_by_use.size(); ++use) {
    outcome.cycles_by_use[use] = sim.UsedAllCpus(static_cast<CpuUse>(use));
  }
  outcome.cycles_per_tick = machine.cycles_per_tick();
  outcome.dispatches = machine.dispatches();
  outcome.parallel_rounds = machine.parallel_rounds();
  outcome.mailbox_rounds = machine.mailbox_rounds();
  for (const auto& farm : runtime.farms) {
    outcome.arrivals += farm->injector->injected();
  }
  for (const SimThread* t : threads.All()) {
    outcome.total_progress += t->progress_units();
  }
  outcome.violation_count = oracle.violation_count();
  for (const InvariantViolation& v : oracle.violations()) {
    outcome.violations.push_back(v.message);
  }
  if (options.collect_trace_dump && outcome.violation_count > 0) {
    outcome.trace_dump = spec.ToString() + oracle.Summary() + sim.trace().ToString(500);
  }
}

Duration EffectiveRunFor(const WorkloadSpec& spec, const RunOptions& options) {
  return options.run_for_override.IsPositive() ? options.run_for_override : spec.run_for;
}

}  // namespace

RunOutcome RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RR_EXPECTS(options.clock_multiplier > 0);
  const int num_cpus = options.num_cpus_override > 0 ? options.num_cpus_override
                                                     : spec.num_cpus;
  const Duration run_for = EffectiveRunFor(spec, options);
  RunOutcome outcome;
  outcome.kind = options.kind;
  InvariantOracle oracle(options.oracle);

  if (options.kind == SchedulerKind::kFeedbackRbs) {
    SystemConfig config;
    config.num_cpus = num_cpus;
    config.cpu.clock_hz = spec.clock_hz * options.clock_multiplier;
    config.rbs.work_conserving = options.rbs_work_conserving;
    config.rbs.order = options.rbs_order;
    config.machine.idle_fast_forward = options.machine_idle_fast_forward;
    config.machine.host_threads = options.host_threads;
    config.thread_slabs = options.thread_slabs;
    System system(config);
    system.sim().trace().SetEnabled(true);
    if (options.attach_oracle) {
      oracle.Observe(system);
    }
    WorkloadRuntime runtime;
    BuildWorkload(spec, system.threads(), system.queues(), system.machine(),
                  &system.controller(), runtime);
    system.Start();
    system.RunFor(run_for);
    if (options.attach_oracle) {
      oracle.FinishRun(system.machine(), system.sim().Now());
    }
    FillOutcome(outcome, system.sim(), system.machine(), system.threads(), runtime, oracle,
                spec, options);
    outcome.pick_checks = oracle.pick_checks();
    outcome.indexed_pick_checks = oracle.indexed_pick_checks();
    outcome.controller_checks = oracle.controller_checks();
    outcome.controller_clean_samples = system.controller().clean_samples();
    return outcome;
  }

  // Baseline rig: one scheduler instance per core, no controller. Lottery run queues
  // draw from per-core engines seeded from the workload seed, so baseline runs are as
  // replayable as everything else.
  CpuConfig cpu_config;
  cpu_config.clock_hz = spec.clock_hz * options.clock_multiplier;
  Simulator sim(cpu_config, num_cpus);
  MachineConfig machine_config;
  machine_config.idle_fast_forward = options.machine_idle_fast_forward;
  machine_config.host_threads = options.host_threads;
  ThreadRegistry threads(options.thread_slabs);
  QueueRegistry queues;
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  std::vector<Scheduler*> raw;
  for (CpuId core = 0; core < num_cpus; ++core) {
    schedulers.push_back(MakeBaselineScheduler(
        options.kind, sim.cpu(core),
        DeriveSeed(spec.seed, 0x10c0 + static_cast<uint64_t>(core))));
    raw.push_back(schedulers.back().get());
  }
  Machine machine(sim, std::move(raw), threads, machine_config);
  sim.trace().SetEnabled(true);
  if (options.attach_oracle) {
    oracle.Observe(machine, &queues);
  }
  WorkloadRuntime runtime;
  BuildWorkload(spec, threads, queues, machine, /*controller=*/nullptr, runtime);
  machine.Start();
  machine.RunFor(run_for);
  if (options.attach_oracle) {
    oracle.FinishRun(machine, sim.Now());
  }
  FillOutcome(outcome, sim, machine, threads, runtime, oracle, spec, options);
  return outcome;
}

namespace {

constexpr SchedulerKind kAllKinds[] = {SchedulerKind::kFeedbackRbs, SchedulerKind::kLottery,
                                       SchedulerKind::kMlfq, SchedulerKind::kFixedPriority};

std::string Label(const char* what, SchedulerKind kind) {
  return std::string(what) + " [" + ToString(kind) + "]";
}

// Maps a cluster-bucket spec onto the cluster scenario runner's parameters: the
// spec's machine shape becomes one node, open_loops[0] the cluster-wide stream.
ClusterFarmParams ClusterParamsFromSpec(const WorkloadSpec& spec) {
  RR_EXPECTS(!spec.open_loops.empty());
  const OpenLoopSpec& ol = spec.open_loops.front();
  ClusterFarmParams params;
  params.num_machines = spec.cluster.num_machines;
  params.farm.num_cpus = spec.num_cpus;
  params.farm.clock_hz = spec.clock_hz;
  params.farm.run_for = spec.run_for;
  params.farm.num_workers = ol.num_workers;
  params.farm.num_acceptors = ol.num_acceptors;
  params.farm.accept_cycles = ol.accept_cycles;
  params.farm.listen_queue_bytes = ol.listen_queue_bytes;
  params.farm.worker_queue_bytes = ol.worker_queue_bytes;
  params.farm.arrivals = ol.arrivals;
  params.epoch = spec.cluster.epoch;
  params.router.policy = spec.cluster.feedback_router ? RouterPolicy::kFeedback
                                                      : RouterPolicy::kRoundRobin;
  params.router.pressure_damping = spec.cluster.pressure_damping;
  params.rebalance_interval = spec.cluster.rebalance_interval;
  params.rebalance_threshold = spec.cluster.rebalance_threshold;
  params.rebalance_max_moves = spec.cluster.rebalance_max_moves;
  return params;
}

// The differential battery for cluster-bucket specs. The scheduler battery does
// not apply (a cluster is M independent machines behind a router, not one
// machine under interchangeable schedulers); what must hold instead is the
// cluster determinism contract.
void CheckClusterSeed(const WorkloadSpec& spec, SeedReport& report) {
  const ClusterFarmParams params = ClusterParamsFromSpec(spec);

  // (a) Degenerate-cluster equivalence: M = 1 must be bit-identical to a bare
  // machine running the identical farm — the cluster layer may add nothing but
  // epoch fences (which settle without trace effects) around a single node.
  {
    ClusterFarmParams one = params;
    one.num_machines = 1;
    const ClusterFarmResult c = RunClusterFarmScenario(one);
    const WebFarmResult bare = RunWebFarmScenario(one.farm);
    if (c.machine_trace_hashes.size() != 1 ||
        c.machine_trace_hashes[0] != bare.trace_hash || c.served != bare.served ||
        c.accepted != bare.accepted || c.injected != bare.injected) {
      report.failures.push_back(
          "cluster M=1 equivalence: degenerate cluster diverged from the bare machine "
          "(hash " +
          std::to_string(c.machine_trace_hashes.empty() ? 0 : c.machine_trace_hashes[0]) +
          " vs " + std::to_string(bare.trace_hash) + ", served " +
          std::to_string(c.served) + " vs " + std::to_string(bare.served) + ")");
    }
  }

  // (b) Host-thread invariance at the drawn width: fanning each node's dispatch
  // rounds over 4 OS threads must leave every per-machine trace hash (and the
  // routed/served outcome) bit-identical.
  const ClusterFarmResult base = RunClusterFarmScenario(params);
  report.reference_hash = base.cluster_hash;
  {
    ClusterFarmParams fanned = params;
    fanned.farm.host_threads = 4;
    const ClusterFarmResult wide = RunClusterFarmScenario(fanned);
    if (wide.machine_trace_hashes != base.machine_trace_hashes ||
        wide.served != base.served || wide.rebalanced != base.rebalanced) {
      report.failures.push_back(
          "cluster host-thread equivalence: host_threads 1 and 4 diverged (cluster hash " +
          std::to_string(base.cluster_hash) + " vs " + std::to_string(wide.cluster_hash) +
          ", served " + std::to_string(base.served) + " vs " +
          std::to_string(wide.served) + ")");
    }
  }

  // (c) Rerun stability: the scenario is a pure function of its parameters.
  {
    const ClusterFarmResult again = RunClusterFarmScenario(params);
    if (again.cluster_hash != base.cluster_hash || again.served != base.served ||
        again.rebalanced != base.rebalanced) {
      report.failures.push_back(
          "cluster rerun stability: identical parameters produced different runs "
          "(cluster hash " +
          std::to_string(base.cluster_hash) + " vs " + std::to_string(again.cluster_hash) +
          ")");
    }
  }
}

}  // namespace

SeedReport CheckSeed(uint64_t seed, const SeedCheckOptions& options) {
  SeedReport report;
  report.seed = seed;
  report.spec = GenerateWorkload(seed);
  const WorkloadSpec& spec = report.spec;

  if (spec.cluster.num_machines > 0) {
    CheckClusterSeed(spec, report);
    return report;
  }

  auto note_violations = [&](const RunOutcome& outcome, const std::string& label) {
    if (outcome.violation_count == 0) {
      return;
    }
    report.failures.push_back(label + ": " + std::to_string(outcome.violation_count) +
                              " invariant violations; first: " +
                              (outcome.violations.empty() ? std::string("<unrecorded>")
                                                          : outcome.violations.front()));
    if (report.trace_dump.empty()) {
      report.trace_dump = outcome.trace_dump;
    }
  };

  // 1. Invariant battery: the spec as generated, under every scheduler. On the
  // feedback machine the oracle also re-derives both hot paths: every dispatch's
  // reserved best by a fresh scan, and every controller tick's ledger sums, cached
  // pressures, and slab columns.
  int64_t feedback_progress = 0;
  int64_t feedback_dispatches = 0;
  for (const SchedulerKind kind : kAllKinds) {
    RunOptions run;
    run.kind = kind;
    run.collect_trace_dump = options.collect_trace_dump;
    const RunOutcome outcome = RunWorkload(spec, run);
    if (kind == SchedulerKind::kFeedbackRbs) {
      report.reference_hash = outcome.trace_hash;
      feedback_progress = outcome.total_progress;
      feedback_dispatches = outcome.dispatches;
      report.indexed_pick_checks = outcome.indexed_pick_checks;
    }
    note_violations(outcome, Label("invariants", kind));
  }

  // 1a. EDF dispatch under the oracle, for specs whose pick index switched on: the
  // generator draws rate-monotonic specs only, so without this pass the index's
  // deadline keys would never meet the oracle. No new draw: the spec is unchanged.
  if (report.indexed_pick_checks > 0) {
    RunOptions edf;
    edf.rbs_order = DispatchOrder::kEarliestDeadlineFirst;
    edf.collect_trace_dump = options.collect_trace_dump;
    const RunOutcome outcome = RunWorkload(spec, edf);
    report.edf_indexed_pick_checks = outcome.indexed_pick_checks;
    note_violations(outcome, "invariants [EDF]");
  }

  // 1c. Memory-layout equivalence: the same spec with the hot-field slabs disabled
  // — every layer back on the pre-slab SimThread pointer chase — must schedule
  // bit-identically. The slabs are a write-through mirror; only the memory layout
  // may differ, never a scheduling decision.
  {
    RunOptions slabless;
    slabless.thread_slabs = false;
    slabless.collect_trace_dump = options.collect_trace_dump;
    const RunOutcome off = RunWorkload(spec, slabless);
    note_violations(off, "invariants [slabs off]");
    if (off.trace_hash != report.reference_hash || off.total_progress != feedback_progress ||
        off.dispatches != feedback_dispatches) {
      report.failures.push_back(
          "slab equivalence: slabs-on and slabs-off runs diverged (hash " +
          std::to_string(report.reference_hash) + " vs " + std::to_string(off.trace_hash) +
          ", dispatches " + std::to_string(feedback_dispatches) + " vs " +
          std::to_string(off.dispatches) + ")");
    }
  }

  // 1e. Host-thread equivalence: the feedback machine with its dispatch rounds
  // fanned out over N OS threads must reproduce the single-threaded trace bit for
  // bit, at every N. Both sides run WITHOUT the oracle attached — an installed
  // checker pins the machine to the sequential path (its hooks observe mid-round
  // state), so the 1-thread base here is re-run oracle-free rather than reusing the
  // pass-1 hash. The widths are 2 (the smallest parallel engine) and the host's
  // hardware concurrency (or SeedCheckOptions::equivalence_host_threads).
  {
    RunOptions base;
    base.attach_oracle = false;
    base.collect_trace_dump = options.collect_trace_dump;
    const RunOutcome one = RunWorkload(spec, base);
    const int wide =
        options.equivalence_host_threads > 0
            ? options.equivalence_host_threads
            : static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
    const int widths[] = {2, wide};
    for (int i = 0; i < (wide > 2 ? 2 : 1); ++i) {
      const int host_threads = widths[i];
      RunOptions fanned = base;
      fanned.host_threads = host_threads;
      const RunOutcome many = RunWorkload(spec, fanned);
      report.equivalence_parallel_rounds += many.parallel_rounds;
      report.equivalence_mailbox_rounds += many.mailbox_rounds;
      report.equivalence_arrivals += many.arrivals;
      if (many.trace_hash != one.trace_hash || many.total_progress != one.total_progress ||
          many.dispatches != one.dispatches) {
        report.failures.push_back(
            "host-thread equivalence: 1 and " + std::to_string(host_threads) +
            " host threads diverged (hash " + std::to_string(one.trace_hash) + " vs " +
            std::to_string(many.trace_hash) + ", dispatches " +
            std::to_string(one.dispatches) + " vs " + std::to_string(many.dispatches) +
            ")");
      }
    }
  }

  if (!options.run_metamorphic) {
    return report;
  }

  // 2. Clock scaling: doubling clock_hz must exactly double the dispatch interval's
  // cycle capacity, and must scale delivered user cycles close to proportionally.
  // The ratio check needs a machine whose busy-ness is clock-invariant, so it runs
  // (a) under fixed-priority — work-conserving, so the machine is busy whenever
  // anything is runnable, unlike the feedback machine whose non-work-conserving
  // allocation ramp makes short-run cycle totals a nonlinear function of the clock
  // by design; (b) on one core — cross-core wake latency is quantized by the 1 ms
  // dispatch tick, a constant of virtual time, so at higher clocks a small-queue
  // cross-core pipeline legitimately stalls for a larger share of its cycles, while
  // on a uniprocessor a block is rescheduled within the same tick's dispatch loop;
  // and (c) with every wall-clock-paced source made CPU-bound, since an isochronous
  // device produces the same items per virtual second at any clock.
  {
    WorkloadSpec unpaced = spec;
    for (PipelineSpec& p : unpaced.pipelines) {
      p.paced = false;
    }
    // Open-loop arrival streams are wall-clock sources too (requests land at fixed
    // virtual times regardless of the clock), so they are excluded like paced
    // producers rather than converted.
    unpaced.open_loops.clear();
    RunOptions at1x;
    at1x.kind = SchedulerKind::kFixedPriority;
    at1x.num_cpus_override = 1;
    at1x.collect_trace_dump = options.collect_trace_dump;
    RunOptions at2x = at1x;
    at2x.clock_multiplier = 2.0;
    const RunOutcome r1 = RunWorkload(unpaced, at1x);
    const RunOutcome r2 = RunWorkload(unpaced, at2x);
    note_violations(r1, "invariants [clock-scale 1x]");
    note_violations(r2, "invariants [clock-scale 2x]");
    if (r2.cycles_per_tick != 2 * r1.cycles_per_tick) {
      report.failures.push_back("clock scaling: cycles_per_tick did not double (" +
                                std::to_string(r1.cycles_per_tick) + " -> " +
                                std::to_string(r2.cycles_per_tick) + ")");
    }
    // Below ~1M user cycles the run is dominated by startup transients; the ratio
    // check would only measure noise.
    if (r1.user_cycles() > 1'000'000) {
      const double ratio =
          static_cast<double>(r2.user_cycles()) / static_cast<double>(r1.user_cycles());
      if (ratio < 1.6 || ratio > 2.4) {
        report.failures.push_back(
            "clock scaling: user cycles scaled by " + std::to_string(ratio) +
            " (expected ~2.0; " + std::to_string(r1.user_cycles()) + " -> " +
            std::to_string(r2.user_cycles()) + ")");
      }
    }
  }

  // 3a. One more core, full spec: the invariant oracle must stay clean on the
  // enlarged machine (placement, rebalancing, and per-core squish all reshuffle).
  {
    RunOptions more;
    more.num_cpus_override = spec.num_cpus + 1;
    more.collect_trace_dump = options.collect_trace_dump;
    note_violations(RunWorkload(spec, more), "invariants [+1 core]");
  }

  // 3b. Core monotonicity, on the spec's partitionable sub-load. "Adding cores never
  // reduces throughput" is only a theorem for loads whose units are independent —
  // the spec's hogs and periodic reservations. It is NOT one for the other
  // ingredients, each for a documented reason the harness must not flag as a bug:
  // cross-core pipelines couple stage capacities (Σ min(stage rates) is non-monotone
  // under placement reshuffles), the misc/real-rate allocation ramp settles at
  // placement- and phase-dependent equilibria by design, and the priority baselines
  // can starve a stage behind a higher-priority hog on any core count (the pathology
  // §4.4 holds against them). The pair runs the feedback machine in work-conserving
  // (background-mode) RBS so delivered cycles measure capacity × occupancy — every
  // core hosting a runnable CPU-bound thread saturates — which a placement or
  // accounting regression would break.
  {
    WorkloadSpec saturators = spec;
    saturators.pipelines.clear();
    // Open-loop farms are queue-coupled like pipelines (and their offered load is a
    // wall-clock constant, not a per-core saturator), so they are stripped too.
    saturators.open_loops.clear();
    if (saturators.hogs.empty() && saturators.reservations.empty()) {
      saturators.hogs.push_back({1'000, 1.0, 5, 100});
      saturators.hogs.push_back({2'000, 2.0, 6, 200});
    }
    RunOptions fewer;
    fewer.run_for_override = Duration::Millis(500);
    fewer.rbs_work_conserving = true;
    fewer.collect_trace_dump = options.collect_trace_dump;
    RunOptions more = fewer;
    more.num_cpus_override = spec.num_cpus + 1;
    const RunOutcome before = RunWorkload(saturators, fewer);
    const RunOutcome after = RunWorkload(saturators, more);
    note_violations(before, "invariants [saturators]");
    note_violations(after, "invariants [saturators, +1 core]");
    if (static_cast<double>(after.user_cycles()) <
        0.98 * static_cast<double>(before.user_cycles())) {
      report.failures.push_back(
          "core monotonicity: " + std::to_string(spec.num_cpus) + " cores delivered " +
          std::to_string(before.user_cycles()) + " user cycles but " +
          std::to_string(spec.num_cpus + 1) + " cores delivered " +
          std::to_string(after.user_cycles()));
    }
  }

  // 4. Seed stability + idle fast-forward equivalence: on one core the whole
  // simulation is a deterministic function of the seed, and skipping empty dispatch
  // ticks is defined to be behavior-preserving — so a run with fast-forward on and a
  // run with it off must produce bit-identical traces, for every scheduler. (This
  // subsumes plain two-run determinism: RunsAreReplayableFromTheSeed covers the
  // identical-options pair in tests/harness_test.cc.)
  // The pair normally runs on one core (the historically pinned configuration), but
  // a high-thread-count spec cannot be squeezed onto one core without violating the
  // generator's feasibility guarantee: the controller's per-thread allocation floor
  // times hundreds of adaptive threads exceeds the core outright. Such specs run at
  // their own (deterministic all the same) width. The threshold derives from the
  // same controller constants RunWorkload builds with: the floors must fit in half
  // the admission budget, leaving the other half for fixed reservations and growth.
  int adaptive_threads =
      static_cast<int>(spec.hogs.size()) + static_cast<int>(spec.interactives.size());
  for (const PipelineSpec& p : spec.pipelines) {
    adaptive_threads += 1 + static_cast<int>(p.stages.size());  // Stages + consumer.
  }
  for (const OpenLoopSpec& ol : spec.open_loops) {
    adaptive_threads += ol.num_workers + ol.num_acceptors;  // All real-rate.
  }
  const double floor_sum = adaptive_threads * ProportionEstimator::kMinFraction;
  const int stability_cpus = floor_sum > kOverloadThreshold / 2 ? spec.num_cpus : 1;
  for (const SchedulerKind kind : kAllKinds) {
    RunOptions uni;
    uni.kind = kind;
    uni.num_cpus_override = stability_cpus;
    uni.run_for_override = Duration::Millis(400);
    uni.collect_trace_dump = options.collect_trace_dump;
    RunOptions no_ff = uni;
    no_ff.machine_idle_fast_forward = false;
    const RunOutcome first = RunWorkload(spec, uni);
    const RunOutcome second = RunWorkload(spec, no_ff);
    // These runs double as the battery's only 1-CPU invariant coverage for specs
    // generated with more cores (both runs violate identically, so check one).
    note_violations(first, Label("invariants [stability width]", kind));
    if (first.trace_hash != second.trace_hash ||
        first.total_progress != second.total_progress ||
        first.dispatches != second.dispatches ||
        first.cycles_by_use != second.cycles_by_use) {
      report.failures.push_back(
          Label("fast-forward equivalence", kind) +
          ": runs with idle fast-forward on/off diverged (hash " +
          std::to_string(first.trace_hash) + " vs " + std::to_string(second.trace_hash) +
          ", dispatches " + std::to_string(first.dispatches) + " vs " +
          std::to_string(second.dispatches) +
          (first.cycles_by_use == second.cycles_by_use ? "" : ", per-category cycles differ") +
          ")");
    }
  }

  return report;
}

}  // namespace realrate
