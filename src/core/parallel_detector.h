// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The periodic pass (§5) over sharded lock state, with both halves
// parallelized on an optional worker pool:
//
//   Step 1  every shard's incremental GraphBuilder refreshes its own ECR
//           edge cache concurrently (shards own disjoint resources), then
//           the one persistent TST is patched serially with what changed
//           (core::TstBuilder) — identical to a single-table build of the
//           union state.
//   Step 2  the component-parallel walk of core/parallel_engine.h with a
//           pool, the plain walk without one.
//   Step 3  the standard abortion-list / change-list reconciliation,
//           routed through a ResolutionHost.
//
// The pass assumes the tables it is handed are frozen for its duration —
// either because the caller holds every shard lock (the stop-the-world
// strategy) or because the tables are a detector-owned sealed epoch
// snapshot nobody else writes (the pauseless strategy; see
// txn/epoch_snapshot.h).  Either way plain reads from worker threads are
// safe.  Reports are byte-identical to PeriodicDetector::RunPass over
// the same aggregate state — the differential suite proves it.

#ifndef TWBG_CORE_PARALLEL_DETECTOR_H_
#define TWBG_CORE_PARALLEL_DETECTOR_H_

#include <cstdint>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/parallel_engine.h"
#include "core/tst_builder.h"

namespace twbg::core {

/// What the sharded pass needs from its owner (txn::ConcurrentLockService
/// over its shard set): the shard tables for Step 1, the parallel-walk
/// lock-state interface for Step 2, and release/reschedule for Step 3.
/// All methods are called with every shard lock held by the pass.
class ShardedDetectionHost : public ParallelWalkHost,
                             public ResolutionHost {
 public:
  /// Number of shards; tables are indexed [0, num_shards()).
  virtual size_t num_shards() const = 0;
  /// Lock table of shard `shard`.
  virtual const lock::LockTable& shard_table(size_t shard) const = 0;
};

/// Periodic detector whose Step 1 and Step 2 run on a worker pool.  Emits
/// the same kPassStart/kStep1/kStep2/.../kPassEnd stream as
/// PeriodicDetector and produces byte-identical reports.
class ParallelPeriodicDetector {
 public:
  /// `pool` (not owned, may be null = run the pass on the calling thread)
  /// sizes the parallelism of both steps.
  explicit ParallelPeriodicDetector(DetectorOptions options = {},
                                    common::ThreadPool* pool = nullptr)
      : options_(options), pool_(pool) {}

  /// One pass over a single lock manager — the differential-parity entry
  /// point, drop-in comparable with PeriodicDetector::RunPass.
  ResolutionReport RunPass(lock::LockManager& manager, CostTable& costs);

  /// One pass over sharded state.  The caller must hold all shard locks.
  ResolutionReport RunPass(ShardedDetectionHost& host, CostTable& costs);

  /// Steps 1 + 2 only, decoupled from resolution: everything the caller
  /// needs to run Step 3 itself.  The pauseless engine detects against a
  /// sealed epoch snapshot (this call), then validates and applies the
  /// resulting change-list against the live shards on its own terms.
  struct DetectOutcome {
    WalkOutcome walk;
    size_t num_transactions = 0;
    size_t num_edges = 0;
    /// Step 1 cache statistics; meaningful when `incremental` is set.
    GraphCacheStats cache;
    bool incremental = false;
    int64_t step1_ns = 0;
  };

  /// Runs Step 1 (TST build) and Step 2 (walk) over `tables`, emitting
  /// kPassStart / kStep1 / kStep2 — and, via the walk, kCycleResolved /
  /// kUprReposition / kCyclePostMortem — on `bus` (which may differ from
  /// options().event_bus: the pauseless engine records onto a local bus
  /// and replays at apply time).  `clock` times the steps and should keep
  /// running for the caller's kPassEnd.  TDR-2 mutations go through
  /// `walk_host`; nothing here touches a ResolutionHost.
  DetectOutcome RunDetect(const std::vector<const lock::LockTable*>& tables,
                          ParallelWalkHost& walk_host, CostTable& costs,
                          obs::EventBus* bus, common::Stopwatch& clock);

  const DetectorOptions& options() const { return options_; }

  /// Weakly-connected components of the most recent pass's TST; 0 when
  /// the pass ran without a pool (its walk is not partitioned).
  size_t last_num_components() const { return last_num_components_; }

 private:
  ResolutionReport RunPassImpl(
      const std::vector<const lock::LockTable*>& tables,
      ParallelWalkHost& walk_host, ResolutionHost& resolution_host,
      CostTable& costs);

  DetectorOptions options_;
  common::ThreadPool* pool_;
  TstBuilder builder_;
  size_t last_num_components_ = 0;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_PARALLEL_DETECTOR_H_
