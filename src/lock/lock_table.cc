// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "lock/lock_table.h"

#include <algorithm>
#include <atomic>

namespace twbg::lock {

uint64_t LockTable::NextTableUid() {
  // Tables are created from multiple threads once the service is sharded;
  // uids only need to be unique, so relaxed ordering suffices (see
  // NextStateVersion).
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

LockTable::LockTable(const LockTable& other)
    : policy_(other.policy_), resources_(other.resources_) {
  // Fresh uid_, empty journal: caches synced against `other` observe a
  // different identity here and resynchronize with a full version sweep.
  order_dirty_ = true;
}

LockTable& LockTable::operator=(const LockTable& other) {
  if (this == &other) return *this;
  policy_ = other.policy_;
  resources_ = other.resources_;
  order_dirty_ = true;
  uid_ = NextTableUid();
  seq_ = 0;
  trimmed_through_ = 0;
  journal_.clear();
  journal_head_ = 0;
  return *this;
}

void LockTable::MarkDirty(ResourceId rid) {
  ++seq_;
  // Append-only, with one O(1) coalescing step: mutation paths often
  // mark the same resource several times back to back (GetOrCreate
  // followed by FindMutable on the granting path), and lifting the back
  // entry to the new sequence number folds those into one.  A resource
  // re-touched later simply gets a fresh entry — DirtySince explicitly
  // allows repeated ids, and the version stamp makes the duplicate a
  // cheap no-op for every cache reader.  Deduplicating deeper would
  // mean an O(journal) reverse scan per mutation, which made every
  // mutation of a table with a long journal (e.g. after a full-table
  // pin) pay for the journal's length.
  if (journal_.size() > journal_head_ && journal_.back().second == rid) {
    journal_.back().first = seq_;
    return;
  }
  journal_.emplace_back(seq_, rid);
  while (journal_.size() - journal_head_ > kJournalCapacity) {
    trimmed_through_ = journal_[journal_head_].first;
    ++journal_head_;
  }
  // Compact the consumed prefix once it dominates the buffer, so the
  // vector's footprint stays O(live entries) amortized O(1) per mark.
  if (journal_head_ > kJournalCapacity) {
    journal_.erase(journal_.begin(),
                   journal_.begin() + static_cast<ptrdiff_t>(journal_head_));
    journal_head_ = 0;
  }
}

bool LockTable::DirtySince(uint64_t since, std::vector<ResourceId>* out) const {
  if (since > seq_) return false;              // reader synced elsewhere
  if (since < trimmed_through_) return false;  // journal trimmed past it
  // Journal is ordered by sequence number; walk back until `since`.
  for (size_t i = journal_.size(); i > journal_head_; --i) {
    const auto& [entry_seq, rid] = journal_[i - 1];
    if (entry_seq <= since) break;
    out->push_back(rid);
  }
  return true;
}

void LockTable::RefreshOrder() const {
  if (!order_dirty_) return;
  ordered_.clear();
  ordered_.reserve(resources_.size());
  for (const auto& entry : resources_) ordered_.push_back(entry.key);
  std::sort(ordered_.begin(), ordered_.end());
  order_dirty_ = false;
}

ResourceState& LockTable::GetOrCreate(ResourceId rid) {
  MarkDirty(rid);
  auto [slot, inserted] = resources_.TryEmplace(rid);
  if (inserted) {
    // A reused slot keeps the holder/queue capacity its last occupant
    // grew, so steady-state create/erase churn is allocation-free.
    order_dirty_ = true;
    slot->Reset(rid, policy_);
  }
  return *slot;
}

const ResourceState* LockTable::Find(ResourceId rid) const {
  return resources_.Find(rid);
}

ResourceState* LockTable::FindMutable(ResourceId rid) {
  ResourceState* state = resources_.Find(rid);
  if (state == nullptr) return nullptr;
  MarkDirty(rid);
  return state;
}

void LockTable::EraseIfFree(ResourceId rid) {
  const ResourceState* state = resources_.Find(rid);
  if (state == nullptr || !state->IsFree()) return;
  MarkDirty(rid);
  resources_.Erase(rid);
  order_dirty_ = true;
}

Status LockTable::CheckInvariants() const {
  for (const auto& [rid, state] : *this) {
    TWBG_RETURN_IF_ERROR(state.CheckInvariants());
  }
  return Status::OK();
}

std::string LockTable::ToString() const {
  std::string out;
  for (const auto& [rid, state] : *this) {
    out += state.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace twbg::lock
