// Simulated CPU core: clock-rate conversion between cycles and virtual time, plus the
// cost model for kernel overheads (dispatch, timer interrupts, context switches) and
// the user-level controller. Calibrated to the paper's 400 MHz Pentium II measurements.
//
// On a multi-core machine each core is its own Cpu instance (owned by the Simulator):
// conversion and the cost model are identical across cores (homogeneous SMP), but
// usage accounting (Charge/Used) is per-core, so experiments can observe per-core
// utilization and the dispatcher charges overheads to the core that incurred them.
#ifndef REALRATE_SIM_CPU_H_
#define REALRATE_SIM_CPU_H_

#include <cstdint>

#include "util/assert.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

struct CpuConfig {
  // Paper testbed: "400 Mhz Pentium 2 with 128MB of memory".
  double clock_hz = 400e6;

  // User-level controller costs (Fig. 5): fixed cost per controller invocation plus a
  // per-controlled-thread cost (read metrics, compute, write allocation). Calibrated
  // from the paper's fit y = .00066x + .00057 at a 10 ms controller period:
  //   intercept .00057 * 10ms * 400MHz = 2280 cycles fixed,
  //   slope     .00066 * 10ms * 400MHz = 2640 cycles per thread.
  Cycles controller_fixed_cycles = 2280;
  Cycles controller_per_thread_cycles = 2640;
};

// Accounting categories for consumed CPU time.
enum class CpuUse : int {
  kUser = 0,        // Application work.
  kDispatch,        // schedule() and context switches.
  kTimer,           // do_timers().
  kController,      // The feedback controller's own computation.
  kIdle,            // Nothing runnable.
  kNumCategories,
};

class Cpu {
 public:
  // Kernel overhead cost model, in cycles, calibrated to the paper's 400 MHz testbed.
  // Cost of a context switch between threads (register save/restore plus immediate
  // cache disturbance).
  static constexpr Cycles kContextSwitchCycles = 400;
  // schedule(): base cost of one dispatcher run.
  static constexpr Cycles kDispatchBaseCycles = 500;
  // Cache-pollution term: at high dispatch frequency, each dispatch amortizes less
  // cached state, so the per-dispatch cost grows roughly linearly with frequency.
  // Expressed as extra cycles per kHz of dispatch frequency. Calibrated so the Fig. 8
  // sweep shows its knee near 4 kHz with ~2.7% total overhead there.
  static constexpr double kDispatchCacheCyclesPerKhz = 550.0;
  // do_timers(): cost of a timer interrupt that finds no expired timer (the common
  // case, thanks to the cached next-expiry) and of one that must do work.
  static constexpr Cycles kTimerIdleCycles = 60;
  static constexpr Cycles kTimerExpiredCycles = 300;

  explicit Cpu(const CpuConfig& config, CpuId id = 0) : config_(config), id_(id) {
    RR_EXPECTS(config.clock_hz > 0);
    RR_EXPECTS(id >= 0);
  }

  const CpuConfig& config() const { return config_; }
  // Which core of the machine this is (0-based; 0 is the boot core).
  CpuId id() const { return id_; }

  Duration CyclesToDuration(Cycles c) const {
    return Duration::Nanos(static_cast<int64_t>(static_cast<double>(c) / config_.clock_hz * 1e9));
  }
  Cycles DurationToCycles(Duration d) const {
    return static_cast<Cycles>(d.ToSeconds() * config_.clock_hz);
  }

  // Per-dispatch cost (cycles) when the dispatcher runs `dispatch_hz` times per second.
  Cycles DispatchCostAt(double dispatch_hz) const {
    return kDispatchBaseCycles +
           static_cast<Cycles>(kDispatchCacheCyclesPerKhz * dispatch_hz / 1000.0);
  }

  // Controller cost for one invocation controlling `num_threads` threads.
  Cycles ControllerCost(int num_threads) const {
    return config_.controller_fixed_cycles +
           config_.controller_per_thread_cycles * static_cast<Cycles>(num_threads);
  }

  void Charge(CpuUse category, Cycles cycles) {
    RR_EXPECTS(cycles >= 0);
    used_[static_cast<int>(category)] += cycles;
  }

  Cycles Used(CpuUse category) const { return used_[static_cast<int>(category)]; }

  Cycles TotalUsed() const {
    Cycles total = 0;
    for (Cycles c : used_) {
      total += c;
    }
    return total;
  }

  void ResetAccounting() {
    for (Cycles& c : used_) {
      c = 0;
    }
  }

 private:
  CpuConfig config_;
  CpuId id_ = 0;
  Cycles used_[static_cast<int>(CpuUse::kNumCategories)] = {};
};

}  // namespace realrate

#endif  // REALRATE_SIM_CPU_H_
