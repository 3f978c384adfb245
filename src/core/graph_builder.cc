// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/graph_builder.h"

#include <algorithm>

namespace twbg::core {

void GraphBuilder::Rebuild(const lock::ResourceState& state,
                           ResourceCache& entry) {
  // Only the participants that joined or left the resource touch the
  // refcounts.  A mutation changes the holder-then-queue sequence in one
  // place (an append, a grant, a release, a reposition), so the two
  // sequences share a prefix and a suffix and differ in a short middle.
  txn_scratch_.clear();
  for (const lock::HolderEntry& h : state.holders()) {
    txn_scratch_.push_back(h.tid);
  }
  for (const lock::QueueEntry& q : state.queue()) {
    txn_scratch_.push_back(q.tid);
  }
  const std::vector<lock::TransactionId>& before = entry.txns;
  const std::vector<lock::TransactionId>& after = txn_scratch_;
  size_t prefix = 0;
  while (prefix < before.size() && prefix < after.size() &&
         before[prefix] == after[prefix]) {
    ++prefix;
  }
  size_t before_end = before.size();
  size_t after_end = after.size();
  while (before_end > prefix && after_end > prefix &&
         before[before_end - 1] == after[after_end - 1]) {
    --before_end;
    --after_end;
  }
  const auto in = [](const std::vector<lock::TransactionId>& v, size_t first,
                     size_t last, lock::TransactionId tid) {
    return std::find(v.begin() + first, v.begin() + last, tid) !=
           v.begin() + last;
  };
  // Retain before release, so a transaction that stays on the resource
  // never leaves the vertex set.
  for (size_t k = prefix; k < after_end; ++k) {
    if (!in(before, prefix, before_end, after[k])) Retain(after[k]);
  }
  for (size_t k = prefix; k < before_end; ++k) {
    if (!in(after, prefix, after_end, before[k])) Release(before[k]);
  }
  entry.txns.swap(txn_scratch_);
  entry.version = state.version();

  ResourceChange change;
  change.rid = state.rid();
  change.old_begin = retired_.size();
  retired_.insert(retired_.end(), entry.edges.begin(), entry.edges.end());
  change.old_end = retired_.size();
  change.new_begin = fresh_.size();
  AppendEcrEdgesForResource(state, /*include_sentinels=*/true, fresh_);
  change.new_end = fresh_.size();
  entry.edges.assign(fresh_.begin() + change.new_begin, fresh_.end());
  const size_t rebuilt = change.new_end - change.new_begin;
  total_edges_ = total_edges_ - (change.old_end - change.old_begin) + rebuilt;
  // A resource without edges before or after changes no vertex's list.
  if (change.old_begin != change.old_end || rebuilt != 0) {
    changes_.push_back(change);
  }
  ++stats_.num_dirty_resources;
  stats_.edges_rebuilt += rebuilt;
}

void GraphBuilder::Drop(lock::ResourceId rid, ResourceCache& entry) {
  for (lock::TransactionId tid : entry.txns) Release(tid);
  if (entry.edges.empty()) return;
  ResourceChange change;
  change.rid = rid;
  change.old_begin = retired_.size();
  retired_.insert(retired_.end(), entry.edges.begin(), entry.edges.end());
  change.old_end = retired_.size();
  change.new_begin = change.new_end = fresh_.size();
  total_edges_ -= entry.edges.size();
  changes_.push_back(change);
}

void GraphBuilder::Retain(lock::TransactionId tid) {
  auto [refs, inserted] = txn_refs_.TryEmplace(tid);
  ++*refs;
  if (inserted) joined_.push_back(tid);
}

void GraphBuilder::Release(lock::TransactionId tid) {
  uint32_t* refs = txn_refs_.Find(tid);
  if (--*refs == 0) {
    txn_refs_.Erase(tid);
    left_.push_back(tid);
  }
}

void GraphBuilder::Refresh(const lock::LockTable& table) {
  stats_ = {};
  changes_.clear();
  retired_.clear();
  fresh_.clear();
  joined_.clear();
  left_.clear();
  dirty_scratch_.clear();
  const bool journal_ok =
      table.uid() == table_uid_ &&
      table.DirtySince(synced_seq_, &dirty_scratch_);
  if (journal_ok) {
    for (lock::ResourceId rid : dirty_scratch_) {
      const lock::ResourceState* state = table.Find(rid);
      if (state == nullptr) {
        // Mutated away entirely (released and reclaimed).
        if (ResourceCache* entry = cache_.Find(rid); entry != nullptr) {
          Drop(rid, *entry);
          cache_.Erase(rid);
        }
        continue;
      }
      auto [entry, inserted] = cache_.TryEmplace(rid);
      // Journal marking is conservative (FindMutable counts as a
      // mutation, and ids repeat); an equal version proves the content
      // did not change.
      if (!inserted && entry->version == state->version()) continue;
      Rebuild(*state, *entry);
    }
  } else {
    // First refresh, a different/copied table, or the journal was trimmed
    // past our sync point: version-compare every resource.  Unchanged
    // entries (equal version — guaranteed identical content, versions are
    // never reused) still serve their cached edges.
    stats_.full_sweep = true;
    for (const auto& [rid, state] : table) {
      auto [entry, inserted] = cache_.TryEmplace(rid);
      if (inserted || entry->version != state.version()) {
        Rebuild(state, *entry);
      }
    }
    // Then drop the entries of resources the table no longer has.
    dirty_scratch_.clear();
    for (const auto& entry : cache_) {
      if (table.Find(entry.key) == nullptr) dirty_scratch_.push_back(entry.key);
    }
    for (lock::ResourceId rid : dirty_scratch_) {
      Drop(rid, *cache_.Find(rid));
      cache_.Erase(rid);
    }
  }
  table_uid_ = table.uid();
  synced_seq_ = table.mutation_seq();
  stats_.num_cached_resources = cache_.size() - stats_.num_dirty_resources;
  stats_.edges_reused = total_edges_ - stats_.edges_rebuilt;
}

std::map<lock::ResourceId, std::vector<TwbgEdge>> GraphBuilder::edge_lists()
    const {
  std::map<lock::ResourceId, std::vector<TwbgEdge>> lists;
  for (const auto& entry : cache_) {
    if (!entry.value.edges.empty()) lists.emplace(entry.key, entry.value.edges);
  }
  return lists;
}

HwTwbg GraphBuilder::BuildGraph(const lock::LockTable& table) {
  Refresh(table);
  std::vector<TwbgEdge> edges;
  edges.reserve(total_edges_);
  for (const auto& [rid, list] : edge_lists()) {
    for (const TwbgEdge& e : list) {
      if (!e.IsSentinel()) edges.push_back(e);
    }
  }
  std::vector<lock::TransactionId> nodes;
  nodes.reserve(txn_refs_.size());
  for (const auto& entry : txn_refs_) nodes.push_back(entry.key);
  return HwTwbg::FromParts(std::move(edges), std::move(nodes));
}

}  // namespace twbg::core
