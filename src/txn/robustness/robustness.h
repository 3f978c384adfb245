// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Aggregate options for the robustness layer: lock-wait deadlines,
// admission control / backpressure, retry policy, and graceful
// degradation.  See docs/ROBUSTNESS.md for the full model.
//
// Units: the discrete-time hosts (TransactionManager with a caller-driven
// clock, the Simulator) read deadline fields as logical ticks; the
// threaded ConcurrentLockService reads them as microseconds.  The zero
// value always means "disabled".

#ifndef TWBG_TXN_ROBUSTNESS_ROBUSTNESS_H_
#define TWBG_TXN_ROBUSTNESS_ROBUSTNESS_H_

#include <cstdint>

#include "common/status.h"
#include "txn/robustness/admission.h"
#include "txn/robustness/fault.h"
#include "txn/robustness/retry.h"

namespace twbg::robustness {

/// Bounds on waiting.  0 disables a bound.
struct DeadlineOptions {
  /// Every lock wait expires after this long; the waiter is removed from
  /// the resource queue (invariants restored) and the acquire reports
  /// kDeadlineExceeded.
  uint64_t lock_wait = 0;
  /// Whole-transaction budget measured from Begin; once exceeded, the
  /// transaction's next expiry check aborts it.
  uint64_t txn_budget = 0;
  /// Abort a transaction after this many of its waits expired (the
  /// abort-after-N policy).  0 means never abort on expiry count alone.
  uint32_t abort_after = 0;

  Status Validate() const;
};

/// Graceful degradation of the periodic detector under overload.
struct DegradationOptions {
  /// When a full pass pauses the service longer than this budget
  /// (nanoseconds), the engine degrades.  The pause is max(longest shard
  /// publish, validated apply) for a pauseless pass and the whole pass
  /// for a stop-the-world one.  0 = never degrade.
  uint64_t pause_budget_ns = 0;
  /// While degraded, the next K scheduled passes run a cheap timeout-
  /// resolver sweep instead of full detection.
  uint32_t degraded_passes = 4;
  /// The sweep aborts a transaction observed blocked for this many
  /// consecutive sweeps (>= 1): the classic timeout resolution the paper
  /// argues against, acceptable as a last-resort fallback.
  uint32_t sweep_patience = 2;

  Status Validate() const;
};

/// Everything a host needs to run the robustness layer.  The default
/// options disable all of it, so existing configurations are unchanged.
struct RobustnessOptions {
  DeadlineOptions deadline;
  RetryOptions retry;
  AdmissionOptions admission;
  DegradationOptions degradation;

  /// Validates every member group.
  Status Validate() const;
};

}  // namespace twbg::robustness

#endif  // TWBG_TXN_ROBUSTNESS_ROBUSTNESS_H_
