// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "txn/epoch_snapshot.h"

#include <algorithm>

#include "common/string_util.h"

namespace twbg::txn {

namespace {

// True when `state` exists and has a waiter: the resources the mirror
// holds (ECR 1-3 draw no edge anywhere else).
bool WaiterBearing(const lock::ResourceState* state) {
  return state != nullptr && state->HasWaiter();
}

}  // namespace

ShardCaptureStats ShardSnapshot::Capture(const lock::LockManager& live) {
  const lock::LockTable& lt = live.table();
  dirty_scratch_.clear();
  // staged_states_ elements are reused by assignment (not cleared): a
  // ResourceState owns holder/queue vectors, and keeping the elements
  // alive keeps their capacity, so a steady-state capture allocates
  // nothing under the shard lock.
  staged_states_used_ = 0;
  staged_erased_.clear();
  staged_waits_.clear();

  ShardCaptureStats stats;
  // The mirror holds the live shard's waiter-bearing resources only, so a
  // changed resource is staged when it has a waiter now (to be copied) or
  // the mirror holds it (to be erased, unless it still has a waiter).
  // Two dirty sources: the live journal (client mutations since the last
  // capture) and the mirror's own journal since the last fold (walk
  // TDR-2s whose validated apply may have been rejected — live will
  // never re-dirty those, so the mirror must re-stage them from live or
  // it diverges permanently; see folded_seq_).
  const bool journals_answered =
      lt.DirtySince(synced_seq_, &dirty_scratch_) &&
      table_.DirtySince(folded_seq_, &dirty_scratch_);
  if (journals_answered) {
    // Most journaled resources never had a waiter (an uncontended grant
    // and its release); drop them before the sort, which then orders only
    // what is staged.
    std::erase_if(dirty_scratch_, [&](lock::ResourceId rid) {
      return !WaiterBearing(lt.Find(rid)) && table_.Find(rid) == nullptr;
    });
  } else {
    // The journal fell behind (or this is the first capture of a table
    // that already trimmed): sweep both sides, keyed on version stamps —
    // equal versions guarantee identical content (lock/resource_state.h).
    stats.full_sweep = true;
    dirty_scratch_.clear();
    for (const auto& [rid, state] : lt) {
      if (!state.HasWaiter()) continue;
      const lock::ResourceState* mine = table_.Find(rid);
      if (mine == nullptr || mine->version() != state.version()) {
        dirty_scratch_.push_back(rid);
      }
    }
    for (const auto& [rid, state] : table_) {
      if (!WaiterBearing(lt.Find(rid))) dirty_scratch_.push_back(rid);
    }
  }
  synced_seq_ = lt.mutation_seq();
  std::sort(dirty_scratch_.begin(), dirty_scratch_.end());
  dirty_scratch_.erase(
      std::unique(dirty_scratch_.begin(), dirty_scratch_.end()),
      dirty_scratch_.end());
  stats.dirty = dirty_scratch_.size();

  for (const lock::ResourceId rid : dirty_scratch_) {
    const lock::ResourceState* theirs = lt.Find(rid);
    if (WaiterBearing(theirs)) {
      // Copy-assignment keeps the live version stamp (resource_state.h).
      if (staged_states_used_ < staged_states_.size()) {
        staged_states_[staged_states_used_] = *theirs;
      } else {
        staged_states_.push_back(*theirs);
      }
      ++staged_states_used_;
    } else {
      staged_erased_.push_back(rid);
    }
  }

  // Stage the wait info of the blocked transactions, the only records the
  // walk and post-mortems read — one pass over the live blocked set,
  // ascending by tid.  Only the wait fields are copied: `touched` is as
  // large as a transaction's lock footprint, and nothing downstream of
  // the sealed mirror reads it — the walk wants blocked_on/blocked_mode,
  // post-mortems want the wait clocks.
  for (const lock::TransactionId tid : live.BlockedTransactions()) {
    const lock::TxnLockInfo& info = *live.Info(tid);
    lock::TxnLockInfo slim;
    slim.blocked_on = info.blocked_on;
    slim.blocked_mode = info.blocked_mode;
    slim.wait_span = info.wait_span;
    slim.wait_started = info.wait_started;
    staged_waits_.emplace_back(tid, std::move(slim));
  }
  return stats;
}

void ShardSnapshot::Fold() {
  for (const lock::ResourceId rid : staged_erased_) {
    if (table_.Find(rid) == nullptr) continue;
    // Reset to a free state (journaling the mutation for the detector's
    // incremental graph cache), then let the table reclaim the entry —
    // the same end state a live release leaves behind.
    table_.GetOrCreate(rid).Reset(rid, table_.policy());
    table_.EraseIfFree(rid);
  }
  for (size_t i = 0; i < staged_states_used_; ++i) {
    // GetOrCreate journals the mutation; copy-assignment preserves the
    // live version stamp (resource_state.h: equal versions <=> identical
    // content), so the mirror is stamp-for-stamp the live shard as of
    // the capture point.
    const lock::ResourceState& state = staged_states_[i];
    table_.GetOrCreate(state.rid()) = state;
  }
  // The staged wait records are every blocked transaction at the capture
  // point, so the mirror is rebuilt rather than patched — a transaction
  // no longer blocked simply no longer appears.  Staging is in ascending
  // id order (the blocked set's), so one swap adopts it sorted; the
  // retired buffer becomes next pass's staging capacity.
  waits_.swap(staged_waits_);
  staged_states_used_ = 0;  // elements stay alive for capacity reuse
  staged_erased_.clear();
  staged_waits_.clear();
  // Everything journaled in the mirror past this point is a detect-phase
  // mutation that the next Capture must re-stage from live.
  folded_seq_ = table_.mutation_seq();
}

const lock::TxnLockInfo* ShardSnapshot::FindWaitInfo(
    lock::TransactionId tid) const {
  auto it = std::lower_bound(
      waits_.begin(), waits_.end(), tid,
      [](const auto& entry, lock::TransactionId t) { return entry.first < t; });
  return it == waits_.end() || it->first != tid ? nullptr : &it->second;
}

Status SnapshotWalkHost::ApplyTdr2Direct(lock::ResourceId rid,
                                         lock::TransactionId junction) {
  lock::ResourceState* state =
      snapshots_[shard_of_(rid)].mutable_table().FindMutableDeferred(rid);
  if (state == nullptr) {
    return Status::NotFound(common::Format("R%u is not locked", rid));
  }
  return state->ApplyTdr2(junction);
}

}  // namespace twbg::txn
