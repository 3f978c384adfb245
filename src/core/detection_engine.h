// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The shared detection-resolution engine behind the periodic and
// continuous detectors: the Step 2 directed walk over a TST with
// ancestor/current bookkeeping, in-walk victim selection and application,
// and the Step 3 abortion-list / change-list reconciliation.
//
// The walk and Step 3 talk to the lock state through two small interfaces
// (WalkHost, ResolutionHost) so the same engine serves a single
// LockManager (the classic sequential pass), a sharded set of managers
// and the sealed epoch mirrors of the pauseless pass
// (txn::ConcurrentLockService).

#ifndef TWBG_CORE_DETECTION_ENGINE_H_
#define TWBG_CORE_DETECTION_ENGINE_H_

#include <vector>

#include "core/cost_table.h"
#include "core/detector.h"
#include "core/tst.h"
#include "lock/lock_manager.h"

namespace twbg::core {

/// Everything the Step 2 walk needs from the lock state: resource lookup
/// for victim enumeration, wait info for post-mortems, and the TDR-2
/// queue repositioning (the one in-walk mutation).
class WalkHost : public ResourceLookup, public WaitInfoLookup {
 public:
  /// Applies the TDR-2 repositioning on `rid` at `junction` (grants stay
  /// deferred to Step 3), journals the resource in its table and, when
  /// the walk's bus is observing, emits one kUprReposition on it.
  virtual Status ApplyTdr2(lock::ResourceId rid,
                           lock::TransactionId junction) = 0;
};

/// WalkHost over a single LockManager — the classic sequential pass.
class LockManagerWalkHost final : public WalkHost {
 public:
  explicit LockManagerWalkHost(lock::LockManager& manager)
      : manager_(manager) {}
  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return manager_.table().Find(rid);
  }
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    return manager_.Info(tid);
  }
  Status ApplyTdr2(lock::ResourceId rid,
                   lock::TransactionId junction) override {
    return manager_.ApplyTdr2(rid, junction);
  }

 private:
  lock::LockManager& manager_;
};

/// The two Step 3 mutations, routed to wherever the locks live.
class ResolutionHost {
 public:
  virtual ~ResolutionHost() = default;
  /// Releases every lock/queue position of `tid` (victim abort); returns
  /// transactions granted by the release, in grant order.
  virtual std::vector<lock::TransactionId> ReleaseAll(
      lock::TransactionId tid) = 0;
  /// Re-runs the grant passes on a change-list resource.
  virtual std::vector<lock::TransactionId> Reschedule(
      lock::ResourceId rid) = 0;
};

/// ResolutionHost over a single LockManager.
class LockManagerResolutionHost final : public ResolutionHost {
 public:
  explicit LockManagerResolutionHost(lock::LockManager& manager)
      : manager_(manager) {}
  std::vector<lock::TransactionId> ReleaseAll(
      lock::TransactionId tid) override {
    return manager_.ReleaseAll(tid);
  }
  std::vector<lock::TransactionId> Reschedule(
      lock::ResourceId rid) override {
    return manager_.Reschedule(rid);
  }

 private:
  lock::LockManager& manager_;
};

/// Intermediate result of the Step 2 walk.
struct WalkOutcome {
  std::vector<VictimDecision> decisions;
  /// Per-cycle forensic records, parallel to `decisions`; empty unless
  /// post-mortems are enabled (see DetectorOptions::collect_post_mortems).
  std::vector<CyclePostMortem> post_mortems;
  /// TDR-1 victims in selection order (pre-sparing).
  std::vector<lock::TransactionId> abortion_list;
  /// Resources repositioned by TDR-2, in application order (change list).
  std::vector<lock::ResourceId> change_list;
  size_t cycles = 0;
  size_t steps = 0;
};

/// Runs the Step 2 directed walk from each root in order.  Detected cycles
/// are resolved on the spot: TDR-1 victims get their `current` forced to
/// nil and join the abortion list; TDR-2 repositions the live queue via
/// `host` (grants deferred to Step 3), bumps ST costs and nils the AV
/// members' currents (Lemma 4.1).
WalkOutcome RunWalk(Tst& tst, const std::vector<lock::TransactionId>& roots,
                    WalkHost& host, CostTable& costs,
                    const DetectorOptions& options);

/// Convenience overload over a single LockManager.
WalkOutcome RunWalk(Tst& tst, const std::vector<lock::TransactionId>& roots,
                    lock::LockManager& manager, CostTable& costs,
                    const DetectorOptions& options);

/// Step 3: processes the abortion list in the configured order (sparing
/// victims an earlier abort already unblocked), releases victims' locks,
/// and reschedules every change-list resource.  Returns the full report.
ResolutionReport ApplyResolution(WalkOutcome walk, ResolutionHost& host,
                                 CostTable& costs,
                                 const DetectorOptions& options);

/// Convenience overload over a single LockManager.
ResolutionReport ApplyResolution(WalkOutcome walk,
                                 lock::LockManager& manager,
                                 CostTable& costs,
                                 const DetectorOptions& options);

}  // namespace twbg::core

#endif  // TWBG_CORE_DETECTION_ENGINE_H_
