// Umbrella header: the public API of the realrate library — a reproduction of
// "A Feedback-driven Proportion Allocator for Real-Rate Scheduling" (Steere et al.,
// OSDI 1999 / OGI TR 98-014), extended to an N-core SMP machine with per-core
// dispatch and cross-core proportion allocation. docs/ARCHITECTURE.md is the
// narrative version of this map; docs/TUNING.md documents every knob.
//
// Layering (bottom to top):
//   util      — time, stats, rng, series
//   sim       — discrete-event simulator, per-core CPU cost model, trace
//   task      — threads and work models
//   queue     — bounded buffers (symbiotic interfaces), meta-interface registry
//   swift     — the PID controller and the filters it is built from
//   sched     — per-core dispatch machine + placement/rebalance; RBS + baselines
//   core      — the feedback proportion allocator (the paper's contribution)
//   workloads — producer/consumer, hogs, servers, interactive jobs
//   exp       — wired System, Sampler, and the paper's experiment scenarios
//   cluster   — M machines, front-end feedback router, cross-machine rebalancer
//   harness   — invariant oracle, seeded workload generator, differential runner
//
// Ownership: a System (exp/system.h) owns one machine's worth of everything; when
// wiring by hand, construct Simulator → registries → schedulers → Machine →
// FeedbackAllocator and keep each alive for the lifetime of the layers above it.
//
// Units: virtual time is integral nanoseconds (util/time.h); work is simulated
// Cycles; allocations are Proportion (parts-per-thousand of ONE core).
//
// Thread-safety: the public API is single-(host-)threaded; every call runs on the
// thread that drives the Simulator. With host_threads > 1 a Machine runs gated
// dispatch rounds on one host thread per simulated core and merges their staged
// records at a barrier, so traces are bit-identical at every host_threads value
// (sched/machine.h states the contract).
#ifndef REALRATE_REALRATE_H_
#define REALRATE_REALRATE_H_

#include "cluster/cluster.h"
#include "cluster/cluster_farm.h"
#include "cluster/router.h"
#include "core/controller.h"
#include "core/overload.h"
#include "core/period_estimator.h"
#include "core/pressure.h"
#include "core/proportion_estimator.h"
#include "core/quality.h"
#include "exp/sampler.h"
#include "exp/scenarios.h"
#include "exp/system.h"
#include "harness/differential.h"
#include "harness/invariants.h"
#include "harness/workload_gen.h"
#include "queue/bounded_buffer.h"
#include "queue/registry.h"
#include "queue/sim_mutex.h"
#include "queue/tty.h"
#include "sched/fixed_priority.h"
#include "sched/lottery.h"
#include "sched/machine.h"
#include "sched/mlfq.h"
#include "sched/rbs.h"
#include "sched/scheduler.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "swift/components.h"
#include "swift/pid.h"
#include "task/registry.h"
#include "task/thread.h"
#include "task/work_model.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/time_series.h"
#include "util/types.h"
#include "workloads/misc_work.h"
#include "workloads/producer_consumer.h"
#include "workloads/rate_schedule.h"
#include "workloads/server.h"

#endif  // REALRATE_REALRATE_H_
