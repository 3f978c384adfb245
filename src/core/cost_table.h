// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Per-transaction abort costs used by victim selection (§5).  The paper
// leaves the metric open ("number of locks it holds, starting time, CPU
// and I/O time consumed, ...") and assumes a cost-table Cost(Ti); this is
// that table.  The simulator wires lock counts / work done into it.
//
// Storage is a slot-stable flat hash map (common/flat_map.h): the
// pauseless pass snapshots the table once per pass, a copy is two array
// copies (freed slots included), and a lookup is one chain walk.  A Begin inserts and a Commit erases, reusing freed slots, so the
// table allocates nothing in steady state.  Nothing depends on the order
// the entries are stored in.

#ifndef TWBG_CORE_COST_TABLE_H_
#define TWBG_CORE_COST_TABLE_H_

#include "common/flat_map.h"
#include "lock/types.h"

namespace twbg::core {

/// Maps transactions to abort costs.  Unknown transactions default to 1.
class CostTable {
 public:
  CostTable() = default;

  /// Cost of aborting `tid` (default 1.0 when unset).
  double Get(lock::TransactionId tid) const;

  /// The explicitly set cost of `tid`, or nullptr when unset.  Valid until
  /// the next Set/Bump/Erase.
  const double* Find(lock::TransactionId tid) const {
    return costs_.Find(tid);
  }

  void Set(lock::TransactionId tid, double cost);

  /// cost := cost * multiplier + increment.  Used on ST members after a
  /// TDR-2 repositioning so repeatedly delayed transactions become
  /// expensive to delay again (livelock avoidance, §5 Step 2).
  void Bump(lock::TransactionId tid, double multiplier, double increment);

  /// Forgets `tid` (on commit/abort).
  void Erase(lock::TransactionId tid);

  size_t size() const { return costs_.size(); }

  /// Same explicitly set tids with the same costs, in any order.
  friend bool operator==(const CostTable& a, const CostTable& b);

 private:
  common::FlatMap<lock::TransactionId, double> costs_;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_COST_TABLE_H_
