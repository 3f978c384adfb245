// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Component-parallel Step 2: partition the TST into weakly-connected
// components and run the directed walk per component on a worker pool.
// Without a pool there is nothing to run concurrently, so the walk runs
// directly over the whole TST (RunWalk), applying and journaling each
// TDR-2 as it decides it.
//
// Why this is exact (byte-identical to the sequential walk): a walk
// starting at root r only ever follows TST edges, so it never leaves r's
// weak component — every vertex visited, every ancestor/current mutated,
// every cycle found and every cost read or bumped (cycle members, TDR-2
// ST/AV members — all appear on a cycle resource, hence in-component)
// belongs to r's component.  Components therefore share no walk state,
// and running them concurrently over one shared Tst is race-free.  The
// sequential pass processes roots in ascending tid order, so its decision
// stream is the per-component decision streams merged by ascending root
// id — which is exactly how Merge() reassembles the outcome, making
// decisions, abortion list, change list, costs and emitted events
// byte-identical to RunWalk over the same state.
//
// In-walk mutations that would race are deferred: TDR-2 repositions the
// ResourceState directly (its version self-stamps, keeping derived caches
// correct) while the mutation journal append and the kUprReposition /
// kCycleResolved / kCyclePostMortem events are recorded per component and
// replayed — in merged decision order — during the serial merge.

#ifndef TWBG_CORE_PARALLEL_ENGINE_H_
#define TWBG_CORE_PARALLEL_ENGINE_H_

#include <vector>

#include "common/thread_pool.h"
#include "core/detection_engine.h"

namespace twbg::core {

/// Weakly-connected-component partition of a TST's vertices.
struct TstPartition {
  /// Vertex slots per component, each in ascending tid order.  Components
  /// are ordered by their smallest tid (the "component root"), which makes
  /// the partition — and everything derived from it — deterministic.
  std::vector<std::vector<size_t>> components;
  /// Component index of every vertex slot (unused slots: kNoVertex).
  std::vector<size_t> component_of;
};

/// Partitions `tst` into weakly-connected components (union-find over the
/// edges' target slots; sentinels and out-of-table targets ignored).
TstPartition PartitionTst(const Tst& tst);

/// Lock-state host for the component-parallel walk.  FindResource and
/// FindWaitInfo must be safe for concurrent readers (the pass holds all
/// shard locks, so plain lookups qualify).  ApplyTdr2Direct must mutate
/// the resource WITHOUT journaling or event emission: the walk calls
/// NoteTdr2Applied once per repositioning decision, in the sequential
/// decision order — right after the apply on the pool-less direct walk,
/// in the serial merge phase on the pooled one.
class ParallelWalkHost : public ResourceLookup, public WaitInfoLookup {
 public:
  /// Applies the TDR-2 repositioning on `rid` at `junction`, mutating the
  /// resource state only (no journal, no events).  Called from worker
  /// threads, but only ever for resources of the calling component.
  virtual Status ApplyTdr2Direct(lock::ResourceId rid,
                                 lock::TransactionId junction) = 0;
  /// Serial journaling of one applied TDR-2.
  virtual void NoteTdr2Applied(lock::ResourceId rid) = 0;
};

/// Runs the Step 2 walk component-parallel over `pool` and returns the
/// merged outcome; with a null `pool` it is RunWalk(tst,
/// tst.Transactions(), ...) itself.  Either way: the same decisions in the
/// same order, the same events on `options.event_bus` and the same
/// cost-table mutations as the sequential walk.  `num_components`, when
/// non-null, receives the partition size (0 without a pool).
WalkOutcome RunWalkComponentParallel(Tst& tst, ParallelWalkHost& host,
                                     CostTable& costs,
                                     const DetectorOptions& options,
                                     common::ThreadPool* pool,
                                     size_t* num_components = nullptr);

}  // namespace twbg::core

#endif  // TWBG_CORE_PARALLEL_ENGINE_H_
