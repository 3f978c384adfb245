// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Epoch snapshots for pauseless periodic detection.  Each shard of
// txn::ConcurrentLockService owns a ShardSnapshot: a detector-side mirror
// of exactly what the Step 1/2 walk and post-mortems read of the shard —
// its waiter-bearing resources (a non-empty queue or a blocked converter)
// and the wait records of its blocked transactions.  ECR 1-3 draw no
// edge at a resource without a waiter, and the walk asks for wait info of
// blocked transactions only, so the rest of the shard (typically most of
// it: uncontended locks and the transactions holding only those) is
// never copied.  A pass begins by *publishing* every shard — Capture()
// runs under the shard mutex and stages the resources the live table's
// mutation journal says changed since the previous pass, filtered to
// those that have a waiter now or sit in the mirror, plus the blocked
// transactions' wait records — and then *sealing* the epoch: Fold()
// applies the staged delta outside any lock.  The walk then runs over
// the sealed mirrors while client traffic proceeds on the live shards;
// the only pause a shard ever observes is its own Capture().
//
// Why the mirror converges: every mutation of live resource state —
// grants, blocks, releases, repositionings, cancellations — goes through
// the LockTable journal (conservatively; see lock/lock_table.h).  A
// resource that gains or loses its last waiter is therefore journaled,
// and the capture copies it (waiter) or erases it from the mirror (no
// waiter), so after each Fold the mirror's resources are exactly the live
// shard's waiter-bearing resources as of the capture point.  Wait records
// are not diffed: the live blocked set is small and kept in tid order by
// the LockManager, and is mirrored whole each capture.  Copy-assignment
// of ResourceState preserves version(), so the mirror carries the *live*
// version stamps — which is what lets resolution commands derived from
// the sealed epoch be validated against the live shards later
// (core::VictimDecision::evidence), and what lets the mirror feed the
// same incremental core::GraphBuilder cache path as a live table.
//
// What a pass over the mirrors counts differs from a pass over the live
// tables in one way: the transactions that appear only on waiter-free
// resources (bystanders) are not in the mirror, so they are not in the
// TST.  Cycles, decisions, victims, grants and post-mortems are the same;
// the pass's transaction count, walk steps and graph-cache counters can
// be lower (core::ResolutionReport).

#ifndef TWBG_TXN_EPOCH_SNAPSHOT_H_
#define TWBG_TXN_EPOCH_SNAPSHOT_H_

#include <functional>
#include <utility>
#include <vector>

#include "core/parallel_engine.h"
#include "lock/lock_manager.h"
#include "lock/lock_table.h"

namespace twbg::txn {

/// What one Capture() staged, for the kSnapshotPublish event.
struct ShardCaptureStats {
  /// Distinct resources staged, whether copied into the mirror (they
  /// have a waiter) or erased from it (they no longer have one): the
  /// journal delta filtered to those, or what the fallback sweep found.
  size_t dirty = 0;
  /// True when the journal could not answer (reader fell behind its
  /// retention window) and the capture fell back to a full
  /// version-compare sweep of the live table.
  bool full_sweep = false;
};

/// Detector-side mirror of one shard's waiter-bearing resources and
/// blocked transactions.  Capture() under the shard lock, Fold() outside
/// it, then read the sealed mirror freely —
/// the owner guarantees no concurrent Capture/Fold (the pauseless pass is
/// serialized).
class ShardSnapshot {
 public:
  explicit ShardSnapshot(
      lock::AdmissionPolicy policy = lock::AdmissionPolicy::kTotalMode)
      : table_(policy) {}

  /// Stages every resource of `live` that changed since the previous
  /// capture and has a waiter now or sits in the mirror, plus the wait
  /// records of `live`'s blocked transactions.  Runs under the shard
  /// mutex; O(J + S log S + B) for J journal entries since the last
  /// capture, S staged resources and B blocked transactions when the
  /// journal can answer, O(shard table) on the fallback sweep.  No mirror
  /// state is modified — publication is split so the costly fold runs
  /// outside the lock.
  ShardCaptureStats Capture(const lock::LockManager& live);

  /// Folds the staged delta into the mirror.  Runs WITHOUT the shard
  /// mutex; touches only detector-owned state.
  void Fold();

  /// The sealed mirror table: the live shard's waiter-bearing resources
  /// at the capture point.  Mutable access exists for the walk's
  /// TDR-2 repositioning (applied to the mirror first, validated against
  /// the live shard later).
  const lock::LockTable& table() const { return table_; }
  lock::LockTable& mutable_table() { return table_; }

  /// Mirror of LockManager::Info at the capture point for a transaction
  /// blocked in this shard, or nullptr when `tid` was not blocked here
  /// (runnable, or unknown to the shard).  Only the wait fields
  /// (blocked_on, blocked_mode, wait_span, wait_started) are mirrored;
  /// `touched` is always empty — it can be as large as a transaction's
  /// whole lock footprint, and the walk and post-mortems never read it.
  const lock::TxnLockInfo* FindWaitInfo(lock::TransactionId tid) const;

 private:
  lock::LockTable table_;
  // Wait records of the blocked transactions: (tid, info) ascending by
  // tid.  A sorted vector
  // rather than a tree — Fold() adopts the staged sweep with one swap
  // (the retired buffer becomes next pass's staging capacity, so the
  // rebuild allocates nothing in steady state) and lookups binary-search.
  std::vector<std::pair<lock::TransactionId, lock::TxnLockInfo>> waits_;
  // Journal cursor into the live table (lock::LockTable::mutation_seq).
  uint64_t synced_seq_ = 0;
  // Journal cursor into the MIRROR's own table, taken at the end of
  // Fold().  Anything the mirror journals after that point is a
  // detect-phase mutation (a walk-applied TDR-2 repositioning).  If the
  // validated apply rejects that decision, the live shard never changes
  // — so the live journal will never re-dirty the resource — yet the
  // mirror now disagrees with it.  Capture() re-stages these resources
  // from live unconditionally; without this the mirror diverges forever
  // on a quiesced shard and every subsequent pass re-derives (and
  // re-rejects) resolutions from the corrupt mirror.
  uint64_t folded_seq_ = 0;

  // Staging area filled by Capture, consumed by Fold.
  std::vector<lock::ResourceId> dirty_scratch_;
  // staged_states_ keeps its elements alive across passes and tracks the
  // in-use prefix in staged_states_used_: reusing a ResourceState by
  // assignment reuses its holder/queue vector capacity, so steady-state
  // captures allocate nothing under the shard lock.
  std::vector<lock::ResourceState> staged_states_;
  size_t staged_states_used_ = 0;
  std::vector<lock::ResourceId> staged_erased_;
  std::vector<std::pair<lock::TransactionId, lock::TxnLockInfo>>
      staged_waits_;
};

/// core::ParallelWalkHost over a set of sealed shard mirrors: the Step
/// 1/2 walk of the pauseless pass reads (and TDR-2-mutates) the mirrors
/// only, never live shard state.  `shard_of` must be the owner's rid ->
/// shard routing (ConcurrentLockService::ShardIndex).
class SnapshotWalkHost final : public core::ParallelWalkHost {
 public:
  SnapshotWalkHost(std::vector<ShardSnapshot>& snapshots,
                   std::function<size_t(lock::ResourceId)> shard_of)
      : snapshots_(snapshots), shard_of_(std::move(shard_of)) {}

  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return snapshots_[shard_of_(rid)].table().Find(rid);
  }
  // The record of the shard that has `tid` blocked, or nullptr when no
  // mirror does (runnable transactions have no mirrored record).  Shards
  // capture one at a time, so a transaction granted in one shard and
  // re-blocked in another between captures can be blocked in two
  // mirrors; the first in shard order wins, as in the live PassHost.
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    for (const ShardSnapshot& snapshot : snapshots_) {
      if (const lock::TxnLockInfo* info = snapshot.FindWaitInfo(tid)) {
        return info;
      }
    }
    return nullptr;
  }
  Status ApplyTdr2Direct(lock::ResourceId rid,
                         lock::TransactionId junction) override;
  void NoteTdr2Applied(lock::ResourceId rid) override {
    snapshots_[shard_of_(rid)].mutable_table().NoteMutation(rid);
  }

 private:
  std::vector<ShardSnapshot>& snapshots_;
  std::function<size_t(lock::ResourceId)> shard_of_;
};

}  // namespace twbg::txn

#endif  // TWBG_TXN_EPOCH_SNAPSHOT_H_
