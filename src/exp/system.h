// System: one fully wired simulated machine — simulator, registries, per-core RBS
// schedulers, dispatch machine, and feedback controller. The standard entry point for
// examples, integration tests and benches. `num_cpus = 1` (the default) builds the
// paper's uniprocessor; larger values build an SMP machine with least-loaded
// placement, per-core proportion allocation, and periodic rebalancing.
#ifndef REALRATE_EXP_SYSTEM_H_
#define REALRATE_EXP_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "queue/registry.h"
#include "sched/machine.h"
#include "sched/rbs.h"
#include "sim/simulator.h"
#include "task/registry.h"

namespace realrate {

struct SystemConfig {
  // Number of simulated CPU cores (1-8 are the tested range). Drives the Simulator's
  // per-core accounting, one RbsScheduler per core, and the Machine's core count.
  int num_cpus = 1;
  CpuConfig cpu;
  MachineConfig machine;
  RbsConfig rbs;
  ControllerConfig controller;
  // If false the controller is constructed but never scheduled (Fig. 8 measures the
  // dispatcher alone).
  bool start_controller = true;
  // Hot-field slabs (task/thread_slabs.h): keep the registry's SoA columns and let
  // the dispatch/control layers scan them. Off = every layer falls back to the
  // SimThread pointer chase — the pre-slab memory layout, kept as the other side of
  // the fuzz battery's slabs-off trace-equality pass and the benchmark's layout A/B.
  bool thread_slabs = true;
};

class System {
 public:
  explicit System(const SystemConfig& config = SystemConfig{});

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  Simulator& sim() { return *sim_; }
  ThreadRegistry& threads() { return threads_; }
  QueueRegistry& queues() { return queues_; }
  // Core `core`'s run queue; with no argument, core 0's (the only one on a
  // uniprocessor).
  RbsScheduler& rbs(CpuId core = 0) { return *rbs_cores_.at(static_cast<size_t>(core)); }
  Machine& machine() { return *machine_; }
  FeedbackAllocator& controller() { return *controller_; }
  int num_cpus() const { return static_cast<int>(rbs_cores_.size()); }

  // Creates a queue and wires its wake callback to the machine.
  BoundedBuffer* CreateQueue(std::string name, int64_t capacity_bytes);

  // Creates a thread, registers it with the registry, and attaches it to the machine
  // (least-loaded core placement).
  SimThread* Spawn(std::string name, std::unique_ptr<WorkModel> work);

  // Starts machine (and controller unless disabled). Call once, then RunFor().
  void Start();
  // Routed through the Machine so idle-fast-forward catch-up settles at the end of
  // each run segment (counters and accounting then read as if every tick ran).
  void RunFor(Duration d) { machine_->RunFor(d); }

 private:
  std::unique_ptr<Simulator> sim_;
  ThreadRegistry threads_;
  QueueRegistry queues_;
  std::vector<std::unique_ptr<RbsScheduler>> rbs_cores_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<FeedbackAllocator> controller_;
  bool start_controller_;
};

}  // namespace realrate

#endif  // REALRATE_EXP_SYSTEM_H_
