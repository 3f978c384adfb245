// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Synthetic lock-table generators with controlled size and cycle
// structure, shared by the benchmark and experiment binaries.  All states
// are produced through the public LockManager API, so every scenario is a
// reachable system state.

#ifndef TWBG_BENCH_SCENARIOS_H_
#define TWBG_BENCH_SCENARIOS_H_

#include <cstddef>
#include <vector>

#include "lock/lock_manager.h"

namespace twbg::bench {

/// Wait chain, no deadlock: T_i holds R_i (X) and waits for R_{i-1}
/// (i = 2..n).  n transactions, n resources, n-1 waits.
void BuildChain(lock::LockManager& manager, size_t n);

/// Single deadlock ring of length n: the chain plus T_1 waiting for R_n.
void BuildRing(lock::LockManager& manager, size_t n);

/// k disjoint deadlock rings of m transactions each (ids are globally
/// unique across rings).
void BuildRings(lock::LockManager& manager, size_t k, size_t m);

/// The exponential-cycle stress: k IS holders of one resource all request
/// an upgrade to X.  Every pair blocks each other (ECR-1 both ways), so
/// the H/W-TWBG restricted to these k vertices is the complete digraph —
/// its elementary-cycle count grows like 3^(k/3), which is what sinks
/// enumeration-based schemes while the paper's walk stays O(n + e(c'+1)).
void BuildUpgradeCrowd(lock::LockManager& manager, size_t k,
                       lock::ResourceId rid = 1);

/// One X holder with q queued waiters — a pure W-edge tail (no deadlock);
/// scales e without adding cycles.
void BuildQueueTail(lock::LockManager& manager, size_t q,
                    lock::ResourceId rid = 1);

/// Bookkeeping for the steady-state churn scenario below.
struct SteadyState {
  /// churn[r - 1] is the transaction currently holding the churn IS lock
  /// on resource r.
  std::vector<lock::TransactionId> churn;
  /// Next unused transaction id for replacement churn holders.
  lock::TransactionId next_tid = 0;
};

/// Large mostly-idle table for the incremental-cache benchmark: `bulk`
/// pool transactions each hold IS on every resource (mutually compatible,
/// so nothing blocks), plus one unique churn transaction per resource
/// holding IS on just that resource.  Every 97th resource also gets one
/// blocked X waiter, so passes see real W/H edges without any deadlock.
/// Builds the same table in every manager of `managers`, each acquire
/// applied to all of them in turn, so no manager's heap blocks sit
/// together; the returned bookkeeping holds for each of them.
SteadyState BuildSteadyState(const std::vector<lock::LockManager*>& managers,
                             size_t num_resources, size_t bulk);

/// Replaces the churn holder of `rid` with a fresh transaction
/// (ReleaseAll + Acquire), dirtying exactly that one resource.
void MutateSteadyState(lock::LockManager& manager, SteadyState& state,
                       lock::ResourceId rid);

}  // namespace twbg::bench

#endif  // TWBG_BENCH_SCENARIOS_H_
