// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Continuous companion of the periodic algorithm (the paper presents the
// periodic scheme "as a companion of the continuous one" [17]): deadlock
// detection runs whenever a lock request blocks, rooted at the newly
// blocked transaction.  Any new cycle necessarily passes through that
// transaction, so a walk rooted there finds and resolves it immediately —
// deadlocks are caught with zero detection latency at the price of a
// detection attempt per block.
//
// This implementation rebuilds the TST per invocation (O(n + e)); the
// incremental edge maintenance of the COMPSAC '91 companion paper is an
// optimization with identical observable behavior.

#ifndef TWBG_CORE_CONTINUOUS_DETECTOR_H_
#define TWBG_CORE_CONTINUOUS_DETECTOR_H_

#include "core/cost_table.h"
#include "core/detection_engine.h"
#include "core/detector.h"
#include "core/tst_builder.h"
#include "lock/lock_manager.h"

namespace twbg::core {

/// Detection-on-block.  Options semantics match PeriodicDetector; the
/// full-table build path (scoped_continuous_build off) goes through the
/// incremental Step 1 (core::TstBuilder) when incremental_build is on.
class ContinuousDetector {
 public:
  explicit ContinuousDetector(DetectorOptions options = {})
      : options_(options) {}

  /// Call after `blocked` failed to acquire a lock.  Resolves every cycle
  /// reachable from it.
  ResolutionReport OnBlock(lock::LockManager& manager, CostTable& costs,
                           lock::TransactionId blocked);

  const DetectorOptions& options() const { return options_; }

 private:
  DetectorOptions options_;
  TstBuilder builder_;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_CONTINUOUS_DETECTOR_H_
