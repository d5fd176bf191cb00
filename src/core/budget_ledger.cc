#include "core/budget_ledger.h"

#include "util/assert.h"

namespace realrate {

BudgetLedger::BudgetLedger(int num_cores)
    : fixed_ppt_(static_cast<size_t>(num_cores), 0),
      granted_(static_cast<size_t>(num_cores), 0.0) {
  RR_EXPECTS(num_cores >= 1);
}

size_t BudgetLedger::Index(CpuId core) const {
  RR_EXPECTS(core >= 0 && static_cast<size_t>(core) < fixed_ppt_.size());
  return static_cast<size_t>(core);
}

void BudgetLedger::AddFixed(CpuId core, int32_t ppt) {
  RR_EXPECTS(ppt >= 0);
  const size_t i = Index(core);
  fixed_ppt_[i] += ppt;
  fixed_ppt_total_ += ppt;
}

void BudgetLedger::RemoveFixed(CpuId core, int32_t ppt) {
  RR_EXPECTS(ppt >= 0);
  const size_t i = Index(core);
  fixed_ppt_[i] -= ppt;
  fixed_ppt_total_ -= ppt;
  RR_ENSURES(fixed_ppt_[i] >= 0);
}

void BudgetLedger::MoveFixed(CpuId from, CpuId to, int32_t ppt) {
  if (from == to) {
    return;
  }
  RemoveFixed(from, ppt);
  AddFixed(to, ppt);
}

void BudgetLedger::SetGranted(CpuId core, double fraction) { granted_[Index(core)] = fraction; }

int64_t BudgetLedger::SparePpt(int32_t threshold_ppt) const {
  int64_t total = 0;
  for (size_t i = 0; i < fixed_ppt_.size(); ++i) {
    const int64_t granted = Proportion::FromFraction(granted_[i]).ppt();
    const int64_t spare = threshold_ppt - fixed_ppt_[i] - granted;
    total += spare > 0 ? spare : 0;
  }
  return total;
}

}  // namespace realrate
