// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Per-resource lock state implementing the paper's §3 scheduling policy:
//
//   * a *holder list* of (tid, granted, blocked) entries, where blocked
//     entries (pending lock conversions) are kept as a prefix ordered by
//     the Upgrader Positioning Rule (UPR 1-3),
//   * a FIFO *queue* of (tid, blocked) entries for new requestors, and
//   * the *total mode* tm = Conv over Conv(gm_i, bm_i) of all holders.
//
// Requests are honored first-in-first-out except for conversions.  The
// resting-state invariants (checked by CheckInvariants and relied upon by
// the H/W-TWBG construction) are:
//
//   I1  blocked holder entries form a prefix of the holder list;
//   I2  tm equals the Conv-fold of every holder's effective mode;
//   I3  no blocked conversion is grantable (Theorem 3.1 makes the first
//       one representative, and the scheduler drains grantable prefixes);
//   I4  if the queue is non-empty, its front is incompatible with tm;
//   I5  a transaction appears at most once in the holder list and at most
//       once in the queue, and never in both (Axiom 1 per resource).

#ifndef TWBG_LOCK_RESOURCE_STATE_H_
#define TWBG_LOCK_RESOURCE_STATE_H_

#include <string>
#include <vector>

#include "common/small_vector.h"
#include "common/status.h"
#include "lock/types.h"

namespace twbg::lock {

/// Holder-list / wait-queue storage: inline capacity covers the common
/// case (a holder or two, a short queue), so steady-state lock traffic
/// never allocates; hot resources spill to the heap and the LockTable's
/// free pool keeps that capacity alive across erase/create cycles.
using HolderList = common::SmallVector<HolderEntry, 4>;
using WaitQueue = common::SmallVector<QueueEntry, 4>;

/// What a new lock request is admission-checked against (§2 of the
/// paper).  The paper's *total mode* folds pending conversion modes into
/// the check, so a newcomer can never slip in ahead of a blocked upgrade;
/// Gray's *group mode* considers granted modes only, which admits such
/// newcomers and delays upgraders arbitrarily (the inefficiency the paper
/// alludes to).  kGroupMode exists as an ablation.
enum class AdmissionPolicy {
  kTotalMode,
  kGroupMode,
};

/// Outcome of ResourceState::Request.
enum class RequestOutcome {
  /// The lock (or conversion) was granted immediately.
  kGranted,
  /// The transaction already holds a mode covering the request; no-op.
  kAlreadyHeld,
  /// The request could not be granted; the transaction is now blocked
  /// (either as a converter in the holder list or as a queue member).
  kBlocked,
};

/// Returns a fresh value from the process-wide modification counter.
/// Values are never reused, so two states with equal versions are
/// guaranteed to carry identical holder/queue content (one is an
/// unmutated copy of the other).
uint64_t NextStateVersion();

/// Lock state of a single resource.  Not thread-safe; the library's core is
/// single-threaded (sequential transaction processing).
class ResourceState {
 public:
  explicit ResourceState(ResourceId rid,
                         AdmissionPolicy policy = AdmissionPolicy::kTotalMode)
      : rid_(rid), policy_(policy), version_(NextStateVersion()) {}

  /// Placeholder for container emplacement (lock::LockTable creates the
  /// slot first, then Reset()s it); not a valid resource until Reset.
  ResourceState() : ResourceState(0) {}

  /// Re-initializes a recycled state as a fresh, free resource with a new
  /// version stamp.  Holder/queue capacity is retained — this is how the
  /// table's free pool keeps heap capacity alive across erase/create
  /// cycles.
  void Reset(ResourceId rid, AdmissionPolicy policy) {
    rid_ = rid;
    policy_ = policy;
    total_mode_ = LockMode::kNL;
    version_ = NextStateVersion();
    holders_.clear();
    queue_.clear();
  }

  ResourceId rid() const { return rid_; }
  AdmissionPolicy policy() const { return policy_; }
  LockMode total_mode() const { return total_mode_; }

  /// Modification stamp: refreshed from the process-wide counter on
  /// construction and by every mutating call (Request, Remove,
  /// Reschedule, ApplyTdr2) that changes holder/queue content.  Derived
  /// caches (core::GraphBuilder) key their per-resource entries on this;
  /// see docs/PERFORMANCE.md for the invalidation contract.
  uint64_t version() const { return version_; }

  /// Gray's group mode: the Conv-fold of the *granted* modes only.
  LockMode GroupMode() const;

  /// The mode new requests are admission-checked against under the
  /// configured policy (total mode, or group mode for the ablation).
  LockMode AdmissionMode() const;
  const HolderList& holders() const { return holders_; }
  const WaitQueue& queue() const { return queue_; }

  /// True when neither held nor waited on; the lock table reclaims such
  /// entries.
  bool IsFree() const { return holders_.empty() && queue_.empty(); }

  /// Pointer into the holder list, or nullptr.  Invalidated by mutations.
  const HolderEntry* FindHolder(TransactionId tid) const;

  /// True when `tid` waits in the queue.
  bool InQueue(TransactionId tid) const;

  /// True when `tid` appears anywhere (holder list or queue).
  bool Involves(TransactionId tid) const;

  /// True when `tid` is blocked here — a blocked converter or any queue
  /// member.
  bool IsBlockedHere(TransactionId tid) const;

  /// True when some transaction is blocked here: the queue is non-empty
  /// or the front holder is a blocked converter (blocked converters form
  /// the holder list's prefix, I1).  ECR 1-3 draw no edge at a resource
  /// without a waiter.
  bool HasWaiter() const {
    return !queue_.empty() ||
           (!holders_.empty() && holders_.front().IsBlocked());
  }

  /// Handles a lock request from `tid` for `mode` per §3:
  ///  * conversion (tid already a holder): grant if the converted mode is
  ///    compatible with every other holder's granted mode, else block the
  ///    entry and reposition it by UPR;
  ///  * new request: grant only if the queue is empty and `mode` is
  ///    compatible with tm, else append to the queue.
  /// Returns FailedPrecondition if `tid` is already blocked here (a
  /// blocked transaction cannot issue requests — Axiom 1).
  Result<RequestOutcome> Request(TransactionId tid, LockMode mode);

  /// Uncontended fast path: grants `mode` to `tid` as the first holder of
  /// a free resource and returns true, or returns false without touching
  /// anything when the resource is not free (or the request is malformed)
  /// and the full Request path must run.  Byte-identical to Request on a
  /// free state — Compatible(m, kNL) holds for every m and Convert(kNL, m)
  /// is m, so a free resource admits any first request under either
  /// policy — but skips the conversion scan, queue checks, and Result
  /// plumbing.
  bool TryFastGrant(TransactionId tid, LockMode mode) {
    if (!holders_.empty() || !queue_.empty() || tid == kInvalidTransaction ||
        mode == LockMode::kNL) {
      return false;
    }
    BumpVersion();
    holders_.push_back(HolderEntry{tid, mode, LockMode::kNL});
    total_mode_ = mode;  // Convert(kNL, mode) == mode; I2 holds
    return true;
  }

  /// Removes every trace of `tid` (commit or abort releases all locks
  /// under strict 2PL) and reschedules.  Returns transactions whose
  /// blocked request became granted as a consequence, in grant order.
  std::vector<TransactionId> Remove(TransactionId tid);

  /// Cancels the *blocked request* of `tid` without disturbing anything it
  /// already holds (deadline expiry, robustness layer):
  ///  * queue member — the entry is deleted;
  ///  * blocked converter — the pending conversion is dropped, the entry
  ///    keeps its granted mode and moves out of the blocked prefix (I1),
  ///    and tm is recomputed (the blocked mode had been folded in).
  /// Reschedules afterwards (the shrunken tm / vacated queue slot can make
  /// other waiters grantable) and returns the newly granted transactions
  /// in grant order.  Errors with FailedPrecondition if `tid` is not
  /// blocked here.
  Result<std::vector<TransactionId>> CancelRequest(TransactionId tid);

  /// Runs the grant passes of §3 until fixpoint and returns newly granted
  /// transactions in grant order:
  ///  1. holder pass — grant blocked conversions from the front of the
  ///     holder list while grantable (Theorem 3.1: stop at the first
  ///     non-grantable or non-blocked entry);
  ///  2. queue pass — admit queue members FIFO while compatible with tm.
  std::vector<TransactionId> Reschedule();

  /// TDR-2 partition (Definition 4.1): splits the queue prefix ending at
  /// `junction` (inclusive) into AV (blocked mode compatible with tm) and
  /// ST (incompatible).  Errors if `junction` is not in the queue or its
  /// own blocked mode is incompatible with tm (TDR-2 inapplicable).
  struct AvSt {
    std::vector<QueueEntry> av;
    std::vector<QueueEntry> st;
  };
  Result<AvSt> ComputeAvSt(TransactionId junction) const;

  /// Applies TDR-2: repositions the ST members of the prefix ending at
  /// `junction` right after the AV members, preserving relative order
  /// within each group.  Does not grant anything — the periodic algorithm
  /// defers grants to Step 3 (change-list) via Reschedule().
  Status ApplyTdr2(TransactionId junction);

  /// Verifies invariants I1-I5; used heavily by tests.
  Status CheckInvariants() const;

  /// The paper's notation, e.g.
  /// "R1(SIX): Holder((T1, IX, SIX) (T2, IS, S)) Queue((T5, IX))".
  std::string ToString() const;

 private:
  // Count of blocked entries at the head of the holder list.
  size_t BlockedPrefixLength() const;

  // True when the blocked conversion of holders_[index] is compatible with
  // the *granted* mode of every other holder (§3's conversion grant test).
  bool ConversionGrantable(size_t index) const;

  // UPR 1-3: insertion position for a newly blocked conversion entry
  // among the current blocked prefix (entry itself must already be
  // removed from the list).
  size_t UprInsertPosition(const HolderEntry& entry) const;

  // Recomputes tm as the Conv-fold of every holder's effective mode.
  void RecomputeTotalMode();

  // Stamps the state as mutated (cache-invalidation contract).
  void BumpVersion() { version_ = NextStateVersion(); }

  ResourceId rid_;
  AdmissionPolicy policy_ = AdmissionPolicy::kTotalMode;
  LockMode total_mode_ = LockMode::kNL;
  uint64_t version_ = 0;
  HolderList holders_;
  WaitQueue queue_;
};

}  // namespace twbg::lock

#endif  // TWBG_LOCK_RESOURCE_STATE_H_
