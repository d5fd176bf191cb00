// BudgetLedger: incrementally maintained per-core budget sums for the feedback
// controller's control plane (see docs/ARCHITECTURE.md, "The control plane").
//
// The paper's admission test and squish both need "how much of this core's budget is
// pinned by fixed (real-time / aperiodic real-time) reservations". The original
// controller answered with an O(n) sweep over every controlled thread per query —
// per admission call and once per core per 100 Hz tick. The ledger keeps the sums
// registered: Add/Remove/Move on the controller's registration and migration events,
// O(1) reads everywhere else.
//
// Units: fixed reservations are summed in integer parts-per-thousand (the exact
// representation of Proportion), so the sums are order-independent and bit-identical
// between the incremental ledger and a fresh scan — the property the invariant
// oracle (harness/invariants.h) checks after every controller iteration. Fractions
// are derived on read as ppt / 1000.0. Granted sums (the adaptive classes'
// post-squish grants) are per-tick aggregates refreshed by the Resolve stage, kept as
// doubles. The cluster router's head-room signal (SparePpt) is derived from both on
// read: it is read once per epoch fence, so nothing is maintained for it per event.
//
// The oracle's scan reads each fixed-class thread's core from the thread itself and
// checks the thread's slab columns (task/thread_slabs.h) against it, so ledger and
// slabs can never silently disagree about which core a fixed reservation is drawn
// from.
//
// Thread-safety: none — lives inside the single-threaded simulator like its owner.
#ifndef REALRATE_CORE_BUDGET_LEDGER_H_
#define REALRATE_CORE_BUDGET_LEDGER_H_

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace realrate {

// Admission threshold < 1: "reserve some capacity to cover the overhead of
// scheduling and interrupt handling." The controller starts from this ceiling, and
// deadline-miss backoff lowers it (core/controller.h).
inline constexpr double kOverloadThreshold = 0.95;

class BudgetLedger {
 public:
  explicit BudgetLedger(int num_cores);

  int num_cores() const { return static_cast<int>(fixed_ppt_.size()); }

  // --- Fixed reservations (event-maintained; exact integer ppt) ---
  void AddFixed(CpuId core, int32_t ppt);
  void RemoveFixed(CpuId core, int32_t ppt);
  // Re-homes one reservation (a controller-steered placement or a rebalancer
  // migration). Equivalent to Remove(from) + Add(to).
  void MoveFixed(CpuId from, CpuId to, int32_t ppt);

  int64_t fixed_ppt_on(CpuId core) const { return fixed_ppt_[Index(core)]; }
  int64_t fixed_ppt_total() const { return fixed_ppt_total_; }
  double FixedFractionOn(CpuId core) const {
    return static_cast<double>(fixed_ppt_on(core)) / 1000.0;
  }
  double FixedFractionTotal() const { return static_cast<double>(fixed_ppt_total_) / 1000.0; }

  // --- Granted sums (per-tick aggregates written by the Resolve stage) ---
  void SetGranted(CpuId core, double fraction);
  double GrantedFractionOn(CpuId core) const { return granted_[Index(core)]; }

  // --- Spare head-room (the cluster router's progress signal) ---
  // Budget head-room under `threshold_ppt` summed over the cores, each core's share
  // being threshold - fixed - granted clamped at zero: mid-squish (or after an
  // admission-threshold backoff) fixed + granted can transiently exceed the
  // threshold, and "negative spare" is not a meaningful routing signal — an
  // over-subscribed core simply has nothing to give. Each core's granted sum is
  // quantized through Proportion's rounding (the quantization actuation applies),
  // so the result is exact integer ppt and bit-identical across replays. O(cores).
  int64_t SparePpt(int32_t threshold_ppt) const;

 private:
  size_t Index(CpuId core) const;

  std::vector<int64_t> fixed_ppt_;
  std::vector<double> granted_;
  int64_t fixed_ppt_total_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_CORE_BUDGET_LEDGER_H_
