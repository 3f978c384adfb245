// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The paper's contribution: the periodic deadlock detection and resolution
// algorithm (§5).  Each pass executes:
//
//   Step 1  build the TST: W edges mirror the live queues; H edges are
//           materialized by ECR 1-2; ancestor/current initialized.
//   Step 2  a directed walk from every transaction resolves each detected
//           cycle on the spot by the cheapest TDR candidate (abort, or
//           TDR-2 queue repositioning that aborts nobody).
//   Step 3  abortion-list / change-list reconciliation: victims already
//           unblocked by earlier aborts are spared; victims' locks are
//           released; repositioned queues are rescheduled; the grant list
//           is produced.
//
// One detector runs the pass over one lock manager (the sequential pass)
// and over sharded lock state: the shards of a txn::ConcurrentLockService
// held under every shard lock (the stop-the-world strategy), or a sealed
// set of per-shard epoch mirrors nobody else writes (the pauseless
// strategy, which calls RunDetect and runs Step 3 itself; see
// txn/epoch_snapshot.h).  Every form shares one Step 1 and one Step 2:
// core::TstBuilder patches the one persistent TST from each table's edge
// cache, and the walk runs over it in ascending tid order.  A pass over
// shards whose union is a single table's state yields that table's
// report byte for byte — the differential suites prove it.
//
// Complexity: O(n + e) space and O(n + e * (c' + 1)) time, where c' (the
// cycles actually searched) is bounded by both the number of elementary
// cycles and n.

#ifndef TWBG_CORE_PERIODIC_DETECTOR_H_
#define TWBG_CORE_PERIODIC_DETECTOR_H_

#include <cstdint>
#include <vector>

#include "common/stopwatch.h"
#include "core/cost_table.h"
#include "core/detection_engine.h"
#include "core/detector.h"
#include "core/tst_builder.h"
#include "lock/lock_manager.h"

namespace twbg::core {

/// What the sharded pass needs from its owner (txn::ConcurrentLockService
/// over its shard set): the shard tables for Step 1, the walk's lock-state
/// interface for Step 2, and release/reschedule for Step 3.  All methods
/// are called with every shard lock held by the pass.
class ShardedDetectionHost : public WalkHost, public ResolutionHost {
 public:
  /// Number of shards; tables are indexed [0, num_shards()).
  virtual size_t num_shards() const = 0;
  /// Lock table of shard `shard`.
  virtual const lock::LockTable& shard_table(size_t shard) const = 0;
};

/// Owns its options plus the incremental Step 1 that keeps the TST across
/// passes (with options.incremental_build off, each pass rebuilds from
/// scratch and the detector is stateless again).  Costs live in the
/// caller-provided CostTable so they persist across passes (TDR-2 bumps
/// must be remembered).
class PeriodicDetector {
 public:
  explicit PeriodicDetector(DetectorOptions options = {})
      : options_(options) {}

  /// Runs one full detection-resolution pass over `manager`, resolving
  /// every deadlock.  Victims in the report's `aborted` list have had all
  /// their locks released; the caller terminates/restarts them.
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
    /// The kPass span opened for this pass when the options carry an
    /// active span tracer (the caller closes it), else 0.
    uint64_t pass_span = 0;
  };

  /// Runs Step 1 (TST build) and Step 2 (walk) over `tables`, emitting
  /// kPassStart / kStep1 / kStep2 — and, via the walk, kCycleResolved /
  /// kUprReposition / kCyclePostMortem — on `bus` (which may differ from
  /// options().event_bus: the pauseless engine records onto a local bus
  /// and replays at apply time; `walk_host` must emit its kUprReposition
  /// on the same bus).  `clock` times the steps and should keep running
  /// for the caller's kPassEnd.  TDR-2 mutations go through `walk_host`;
  /// nothing here touches a ResolutionHost.
  DetectOutcome RunDetect(const std::vector<const lock::LockTable*>& tables,
                          WalkHost& walk_host, CostTable& costs,
                          obs::EventBus* bus, common::Stopwatch& clock);

  const DetectorOptions& options() const { return options_; }

  /// Points later passes at another event bus and span tracer (the
  /// options' event_bus and span_tracer; either may be null).  The
  /// incremental Step 1 state is kept.
  void set_observers(obs::EventBus* bus, obs::SpanTracer* tracer) {
    options_.event_bus = bus;
    options_.span_tracer = tracer;
  }

 private:
  // The shared body of both RunPass forms: RunDetect, then Step 3.
  ResolutionReport RunPassImpl(
      const std::vector<const lock::LockTable*>& tables, WalkHost& walk_host,
      ResolutionHost& resolution_host, CostTable& costs);

  DetectorOptions options_;
  TstBuilder builder_;
  std::vector<const lock::LockTable*> tables_;  // RunPass scratch
};

}  // namespace twbg::core

#endif  // TWBG_CORE_PERIODIC_DETECTOR_H_
