// Thread-slab scaling: the memory layout itself, isolated from the scheduler.
// One measurement over the structures in task/thread_slabs.h, at farm densities
// (256 / 1024 / 4096 threads): the placement-census read (sum granted ppt of live
// reserved threads on one core) as a slab column scan vs the same predicate chasing
// arena-allocated SimThread objects (the AoS layout every sweep used before the
// slabs). The ratio is the cache-locality win the SoA columns exist for: a column
// sweep streams the bytes it reads; the AoS sweep drags whole ~200-byte thread
// records through L2.
//
// Both sides compute the identical sum (asserted) — the ratio is layout, not work.
//
// The `SLAB_SCALE ...` line is machine-readable: scripts/check_slab_scale.py
// compares it against the committed BENCH_slab_baseline.json in CI and fails on a
// > 2x slab-sweep throughput regression at 4096 threads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "task/thread.h"
#include "task/thread_slabs.h"
#include "util/assert.h"
#include "util/time.h"
#include "util/types.h"
#include "workloads/misc_work.h"

namespace realrate {
namespace {

constexpr int kCores = 8;

// `total` arena-allocated threads bound to slabs, laid out like the farm steady
// state: reserved policy, ppt and periods cycled, cores round-robin, a quarter
// blocked (still live — sweeps must skip by predicate, not by absence).
// alignas pins the rig's stack placement: the sweep reads the column headers
// through this object, and an unpinned frame makes measured throughput swing
// ~30% with the parity of sizeof(ThreadSlabs) — layout luck, not layout cost.
struct alignas(64) SlabRig {
  ThreadSlabs slabs;  // Declared first: it must outlive the threads bound to it.
  ThreadArena arena;
  std::vector<SimThread*> threads;

  explicit SlabRig(int total) {
    threads.reserve(static_cast<size_t>(total));
    for (int i = 0; i < total; ++i) {
      SimThread* t = arena.Create(static_cast<ThreadId>(i), "t" + std::to_string(i),
                                  std::make_unique<CpuHogWork>());
      slabs.Bind(t);
      t->set_policy(SchedPolicy::kReservation);
      t->SetReservation(Proportion::Ppt(1 + i % 4), Duration::Millis(5 + i % 28));
      t->set_cpu(static_cast<CpuId>(i % kCores));
      t->set_state(i % 4 == 3 ? ThreadState::kBlocked : ThreadState::kRunnable);
      threads.push_back(t);
    }
  }
};

// The placement-census predicate (Machine::ReservedFractionOn), on the slab columns.
int64_t SweepColumns(const ThreadSlabs& slabs, CpuId core) {
  int64_t sum = 0;
  const int32_t n = slabs.slot_count();
  for (int32_t s = 0; s < n; ++s) {
    if (slabs.state(s) != ThreadState::kExited &&
        slabs.policy(s) == SchedPolicy::kReservation && slabs.cpu(s) == core) {
      sum += slabs.granted_ppt(s);
    }
  }
  return sum;
}

// The identical predicate chasing the thread records (the pre-slab layout).
int64_t SweepObjects(const std::vector<SimThread*>& threads, CpuId core) {
  int64_t sum = 0;
  for (const SimThread* t : threads) {
    if (!t->HasExited() && t->policy() == SchedPolicy::kReservation && t->cpu() == core) {
      sum += t->proportion().ppt();
    }
  }
  return sum;
}

// Keeps `value` alive and fences memory, so each sweep's result is computed and its
// column headers are re-read every iteration instead of hoisted out of the loop.
[[gnu::always_inline]] inline void KeepAlive(const int64_t& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double MeasureSweep(bool columns, const SlabRig& rig, int64_t iterations) {
  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < iterations; ++i) {
    const CpuId core = static_cast<CpuId>(i % kCores);
    const int64_t sum =
        columns ? SweepColumns(rig.slabs, core) : SweepObjects(rig.threads, core);
    KeepAlive(sum);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(iterations) / wall;
}

void PrintSlabScale() {
  bench::PrintHeader(
      "Hot sweep: placement census (reserved ppt on one core) over every thread\n"
      "slab column scan vs AoS pointer chase over arena-allocated SimThreads");
  std::printf("  %8s %18s %18s %9s\n", "threads", "slab sweep/ws", "aos sweep/ws",
              "speedup");
  double slab_sweep_4096 = 0.0;
  double aos_sweep_4096 = 0.0;
  for (int total : {256, 1024, 4096}) {
    SlabRig rig(total);
    // Identical answers on every core, or the ratio below measures a bug.
    for (CpuId core = 0; core < kCores; ++core) {
      RR_CHECK(SweepColumns(rig.slabs, core) == SweepObjects(rig.threads, core));
    }
    const int64_t iters = 4'000'000 / total;
    // Interleaved trials, per-side best: host interference only ever subtracts
    // throughput, so each side's max is its least-contaminated estimate.
    double soa = 0.0;
    double aos = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
      soa = std::max(soa, MeasureSweep(/*columns=*/true, rig, iters * 4));
      aos = std::max(aos, MeasureSweep(/*columns=*/false, rig, iters));
    }
    std::printf("  %8d %18.0f %18.0f %8.2fx\n", total, soa, aos, soa / aos);
    if (total == 4096) {
      slab_sweep_4096 = soa;
      aos_sweep_4096 = aos;
    }
  }

  std::printf("\n  4096-thread sweep speedup: %.1fx\n", slab_sweep_4096 / aos_sweep_4096);
  // Machine-readable line for scripts/check_slab_scale.py (CI regression gate).
  std::printf("SLAB_SCALE threads=4096 slab_sweep_per_wsec=%.0f aos_sweep_per_wsec=%.0f "
              "sweep_speedup=%.2f\n\n",
              slab_sweep_4096, aos_sweep_4096, slab_sweep_4096 / aos_sweep_4096);
}

}  // namespace
}  // namespace realrate

int main() {
  realrate::PrintSlabScale();
  return 0;
}
