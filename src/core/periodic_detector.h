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
// Complexity: O(n + e) space and O(n + e * (c' + 1)) time, where c' (the
// cycles actually searched) is bounded by both the number of elementary
// cycles and n.

#ifndef TWBG_CORE_PERIODIC_DETECTOR_H_
#define TWBG_CORE_PERIODIC_DETECTOR_H_

#include "core/cost_table.h"
#include "core/detection_engine.h"
#include "core/detector.h"
#include "core/tst_builder.h"
#include "lock/lock_manager.h"

namespace twbg::core {

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

  const DetectorOptions& options() const { return options_; }

  /// Points later passes at another event bus and span tracer (the
  /// options' event_bus and span_tracer; either may be null).  The
  /// incremental Step 1 state is kept.
  void set_observers(obs::EventBus* bus, obs::SpanTracer* tracer) {
    options_.event_bus = bus;
    options_.span_tracer = tracer;
  }

 private:
  DetectorOptions options_;
  TstBuilder builder_;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_PERIODIC_DETECTOR_H_
