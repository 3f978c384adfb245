// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Transaction-facing lock manager.  Wraps the LockTable with per-transaction
// bookkeeping (which resources a transaction touches, where it is blocked)
// and enforces the sequential-transaction-processing model: a blocked
// transaction cannot issue further requests (Axiom 1 of the paper).
//
// The lock manager does not detect deadlocks itself; detectors (core/ and
// baselines/) read and, for resolution, mutate it through this interface.
//
// Bookkeeping storage mirrors the lock table's layout: a slot-stable hash
// map of TxnLockInfo keyed by transaction id (common/flat_map.h),
// unordered — the cold ordered sweep (KnownTransactions) sorts on demand —
// and an inline-capacity sorted set for each transaction's
// touched-resource list: under strict 2PL a transaction rarely touches
// more than a handful of resources, so the Acquire/Release hot path stays
// allocation-free.  A new transaction may reuse the slot of one that
// ended, and starts from a value-initialised TxnLockInfo: nothing of the
// previous occupant (its touched set, its retained wait span) shows
// through.  The blocked transactions are kept apart in an ascending
// vector, updated where a transaction blocks and wherever it stops being
// blocked, so the readers that want only waiters (detection-pass
// publishes, admission watermarks, timeout sweeps) never visit a runnable
// transaction.

#ifndef TWBG_LOCK_LOCK_MANAGER_H_
#define TWBG_LOCK_LOCK_MANAGER_H_

#include <optional>
#include <vector>

#include "common/flat_map.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "lock/lock_table.h"
#include "obs/bus.h"
#include "obs/span.h"

namespace twbg::lock {

/// Per-transaction view kept by the lock manager.
struct TxnLockInfo {
  /// Resource on which the transaction is blocked (queue member or blocked
  /// converter), or nullopt when runnable.
  std::optional<ResourceId> blocked_on;
  /// Mode the transaction is blocked for (post-Conv for conversions);
  /// kNL when runnable.
  LockMode blocked_mode = LockMode::kNL;
  /// Wait-span correlation id of the transaction's most recent block
  /// (manager-wide monotonic, 0 = never blocked).  Deliberately retained
  /// after wakeup so the driver can stamp the span onto its kWaitEnd
  /// event after the wait is over.
  uint64_t wait_span = 0;
  /// Logical bus time at which the most recent block started (0 when no
  /// bus was attached).  Retained like wait_span; post-mortems use it to
  /// compute each cycle member's time in queue.
  uint64_t wait_started = 0;
  /// Every resource where the transaction currently appears, ascending.
  common::SortedSmallSet<ResourceId, 8> touched;
};

/// Single-threaded lock manager for sequential transaction processing.
class LockManager {
 public:
  explicit LockManager(
      AdmissionPolicy policy = AdmissionPolicy::kTotalMode)
      : table_(policy) {}

  /// Requests `mode` on `rid` for `tid`.  On kBlocked the transaction must
  /// not issue further requests until granted or aborted.  Transactions are
  /// registered implicitly on first use.
  Result<RequestOutcome> Acquire(TransactionId tid, ResourceId rid,
                                 LockMode mode);

  /// Releases all locks and queue positions of `tid` (commit or abort under
  /// strict 2PL) and forgets the transaction.  Returns transactions whose
  /// blocked requests became granted, in grant order.
  std::vector<TransactionId> ReleaseAll(TransactionId tid);

  /// Releases `tid`'s appearance on the single resource `rid`, emitting a
  /// kLockWakeup per grant but NOT the final kLockRelease summary and NOT
  /// forgetting the transaction.  Building block for cross-shard releases
  /// (txn::ConcurrentLockService commits span several managers and must
  /// release in global ascending-rid order); ReleaseAll is implemented on
  /// top of it.  Returns transactions granted on `rid`, in grant order.
  std::vector<TransactionId> ReleaseOn(TransactionId tid, ResourceId rid);

  /// Drops all bookkeeping for `tid` without touching the table.  The
  /// caller must already have released every resource in `tid`'s touched
  /// set (via ReleaseOn); emits nothing.
  void Forget(TransactionId tid);

  /// Cancels `tid`'s blocked wait (deadline expiry): the blocked request
  /// is withdrawn from the resource with full invariant maintenance
  /// (ResourceState::CancelRequest), anything `tid` already held there
  /// stays held, and `tid` becomes runnable again.  Waiters unblocked by
  /// the withdrawal are granted (kLockWakeup each) and returned in grant
  /// order.  wait_span/wait_started are retained, as after a wakeup, so
  /// the caller can stamp its kDeadlineExpired / kWaitEnd events.  Errors
  /// with FailedPrecondition when `tid` is not blocked.
  Result<std::vector<TransactionId>> CancelWait(TransactionId tid);

  /// Re-runs the grant passes on `rid` (used by detector Step 3 for
  /// change-list resources) and updates blocked bookkeeping.
  std::vector<TransactionId> Reschedule(ResourceId rid);

  /// Applies the TDR-2 queue repositioning on `rid` at `junction`.  Grants
  /// are NOT performed here; call Reschedule(rid) afterwards (Step 3).
  Status ApplyTdr2(ResourceId rid, TransactionId junction);

  /// True when `tid` is currently blocked.
  bool IsBlocked(TransactionId tid) const;

  /// Resource `tid` is blocked on, or nullopt.
  std::optional<ResourceId> BlockedOn(TransactionId tid) const;

  /// Full info for `tid`, or nullptr if unknown.
  const TxnLockInfo* Info(TransactionId tid) const;

  /// Wait-span id of `tid`'s most recent block (0 = never blocked).
  /// Valid while blocked and after wakeup, until the transaction releases
  /// (drivers read it when emitting kWaitEnd).
  uint64_t WaitSpan(TransactionId tid) const;

  /// Logical time `tid`'s most recent block started; 0 when never blocked
  /// or when no bus was attached at block time.
  uint64_t WaitStarted(TransactionId tid) const;

  /// All transactions known to the lock manager, ascending by id.  Sorts
  /// on every call: for cold callers (views, scripts, invariant checks).
  std::vector<TransactionId> KnownTransactions() const;

  /// All currently blocked transactions, ascending by id: the kept set
  /// itself, not a copy.  Invalidated by any mutation of the manager — a
  /// caller that acquires, releases, cancels or reschedules while
  /// iterating must iterate a copy.
  const std::vector<TransactionId>& BlockedTransactions() const {
    return blocked_;
  }

  /// Number of currently blocked transactions.
  size_t NumBlocked() const { return blocked_.size(); }

  const LockTable& table() const { return table_; }
  LockTable& mutable_table() { return table_; }

  /// Attaches an event bus (may be null to detach).  When attached and
  /// active, the manager emits kLockGrant / kLockBlock / kLockConvert /
  /// kLockRelease / kLockWakeup / kUprReposition events; when detached the
  /// only cost is one pointer test per operation.
  void set_event_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Currently attached event bus, or nullptr.
  obs::EventBus* event_bus() const { return bus_; }

  /// Attaches a span tracer (may be null to detach).  When attached and
  /// active, every block opens a kWait span carrying the PR-3 wait-span
  /// correlation id, closed by the matching wakeup (granted), abort
  /// (ReleaseAll of a blocked transaction) or deadline cancel; when
  /// detached the only cost is one pointer test per block/wakeup.  The
  /// tracer shares the bus's single-writer contract — hosts that
  /// serialize bus emission already serialize span emission.
  void set_span_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

  /// Currently attached span tracer, or nullptr.
  obs::SpanTracer* span_tracer() const { return tracer_; }

  /// Checks lock-table invariants plus bookkeeping consistency (blocked_on
  /// matches the table; the blocked set is exactly the transactions with
  /// blocked_on set, ascending; touched sets match appearances).  The
  /// cross-checks that sweep every transaction against every resource are
  /// O(T×R); pass `deep = false` (benchmarks, large simulations) to skip
  /// them and keep only the per-resource and per-transaction checks.
  Status CheckInvariants(bool deep = true) const;

 private:
  // Clears blocked state for every granted transaction.
  void NoteGranted(const std::vector<TransactionId>& granted);

  // Clears `info`'s blocked state and drops `tid` from blocked_; a no-op
  // when it is runnable.  Every way out of blocked goes through here.
  void ClearBlocked(TransactionId tid, TxnLockInfo& info);

  LockTable table_;
  common::FlatMap<TransactionId, TxnLockInfo> txns_;
  // Every tid whose blocked_on is set, ascending.
  std::vector<TransactionId> blocked_;
  obs::EventBus* bus_ = nullptr;
  obs::SpanTracer* tracer_ = nullptr;
  uint64_t next_wait_span_ = 1;  // wait-span ids are manager-wide monotonic
};

}  // namespace twbg::lock

#endif  // TWBG_LOCK_LOCK_MANAGER_H_
