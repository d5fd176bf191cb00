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
// are derived on read as ppt / 1000.0. Granted sums (the adaptive classes' post-squish grants) are per-tick
// aggregates refreshed by the Resolve stage, kept as doubles for introspection only.
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

class BudgetLedger {
 public:
  explicit BudgetLedger(int num_cores);

  int num_cores() const { return static_cast<int>(fixed_ppt_.size()); }

  // --- Admission threshold (mirrors the controller's overload_threshold) ---
  // The spare aggregates below are defined against this ceiling. The owning
  // controller re-mirrors it whenever adaptive admission backoff moves the
  // threshold, so cluster-level readers always see post-backoff head-room.
  void SetThresholdPpt(int32_t ppt);
  int32_t threshold_ppt() const { return threshold_ppt_; }

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
  // Budget head-room left on `core` under `threshold` after fixed reservations and
  // the adaptive grants of the last resolved tick. Clamped at zero: mid-squish (or
  // after an admission-threshold backoff) fixed + granted can transiently exceed
  // the threshold, and "negative spare" is not a meaningful routing signal — an
  // over-subscribed core simply has nothing to give. Callers that need the signed
  // overshoot can compute it from FixedFractionOn/GrantedFractionOn directly.
  double SpareFractionOn(CpuId core, double threshold) const {
    const double spare = threshold - FixedFractionOn(core) - GrantedFractionOn(core);
    return spare > 0.0 ? spare : 0.0;
  }

  // --- Spare aggregate (the cluster router's progress signal) ---
  // Exact integer ppt, clamped at zero per core, maintained incrementally on every
  // mutation so the cluster-level reader is O(1) regardless of core count. Grants
  // are quantized through Proportion's rounding (the same quantization actuation
  // applies), keeping the sum order-independent and bit-identical across replays.
  int64_t spare_ppt_on(CpuId core) const { return SpareContribution(Index(core)); }
  int64_t spare_ppt_total() const { return spare_ppt_total_; }

 private:
  size_t Index(CpuId core) const;
  // Clamped head-room of one core in ppt under the stored threshold.
  int64_t SpareContribution(size_t i) const {
    const int64_t spare = threshold_ppt_ - fixed_ppt_[i] - granted_ppt_[i];
    return spare > 0 ? spare : 0;
  }
  void RecomputeSpareTotal();

  std::vector<int64_t> fixed_ppt_;
  std::vector<double> granted_;
  std::vector<int64_t> granted_ppt_;
  int64_t fixed_ppt_total_ = 0;
  int32_t threshold_ppt_ = 950;  // ControllerConfig::overload_threshold default.
  int64_t spare_ppt_total_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_CORE_BUDGET_LEDGER_H_
