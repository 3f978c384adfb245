// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/cost_table.h"

namespace twbg::core {

double CostTable::Get(lock::TransactionId tid) const {
  const double* cost = costs_.Find(tid);
  return cost == nullptr ? 1.0 : *cost;
}

void CostTable::Set(lock::TransactionId tid, double cost) {
  costs_[tid] = cost;
}

void CostTable::Bump(lock::TransactionId tid, double multiplier,
                     double increment) {
  auto [cost, inserted] = costs_.TryEmplace(tid);
  if (inserted) *cost = 1.0;
  *cost = *cost * multiplier + increment;
}

void CostTable::Erase(lock::TransactionId tid) { costs_.Erase(tid); }

bool operator==(const CostTable& a, const CostTable& b) {
  if (a.size() != b.size()) return false;
  for (const auto& entry : a.costs_) {
    const double* other = b.costs_.Find(entry.key);
    if (other == nullptr || *other != entry.value) return false;
  }
  return true;
}

}  // namespace twbg::core
