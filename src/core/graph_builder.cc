// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/graph_builder.h"

#include <algorithm>

namespace twbg::core {

void GraphBuilder::Rebuild(const lock::ResourceState& state,
                           ResourceCache& entry) {
  // Retain the new participants before releasing the old ones, so a
  // transaction that stays on the resource never leaves the vertex set.
  txn_scratch_.clear();
  for (const lock::HolderEntry& h : state.holders()) {
    txn_scratch_.push_back(h.tid);
  }
  for (const lock::QueueEntry& q : state.queue()) {
    txn_scratch_.push_back(q.tid);
  }
  RetainTxns(txn_scratch_);
  ReleaseTxns(entry.txns);
  entry.txns.swap(txn_scratch_);
  entry.version = state.version();

  rebuild_scratch_.clear();
  AppendEcrEdgesForResource(state, /*include_sentinels=*/true,
                            rebuild_scratch_);
  const size_t rebuilt = rebuild_scratch_.size();
  if (rebuilt == 0) {
    DropEdges(state.rid());
  } else {
    std::vector<TwbgEdge>& list = edge_lists_[state.rid()];
    total_edges_ -= list.size();
    list.swap(rebuild_scratch_);
  }
  total_edges_ += rebuilt;
  ++stats_.num_dirty_resources;
  stats_.edges_rebuilt += rebuilt;
}

void GraphBuilder::Drop(lock::ResourceId rid, ResourceCache& entry) {
  ReleaseTxns(entry.txns);
  DropEdges(rid);
}

void GraphBuilder::DropEdges(lock::ResourceId rid) {
  auto it = edge_lists_.find(rid);
  if (it == edge_lists_.end()) return;
  total_edges_ -= it->second.size();
  edge_lists_.erase(it);
}

void GraphBuilder::RetainTxns(const std::vector<lock::TransactionId>& txns) {
  for (lock::TransactionId tid : txns) {
    auto [refs, inserted] = txn_refs_.TryEmplace(tid);
    ++*refs;
    if (inserted) {
      txns_.insert(std::lower_bound(txns_.begin(), txns_.end(), tid), tid);
    }
  }
}

void GraphBuilder::ReleaseTxns(const std::vector<lock::TransactionId>& txns) {
  for (lock::TransactionId tid : txns) {
    uint32_t* refs = txn_refs_.Find(tid);
    if (--*refs == 0) {
      txn_refs_.Erase(tid);
      txns_.erase(txns_.begin() + SortedIndexOf(txns_, tid));
    }
  }
}

void GraphBuilder::Refresh(const lock::LockTable& table) {
  stats_ = {};
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

Tst& GraphBuilder::RefreshTst(const lock::LockTable& table) {
  Refresh(table);
  edge_scratch_.clear();
  edge_scratch_.reserve(total_edges_);
  for (const auto& [rid, edges] : edge_lists_) {
    edge_scratch_.insert(edge_scratch_.end(), edges.begin(), edges.end());
  }
  // txns_ is sorted, duplicate-free and holds every edge source: the
  // presorted assembly path.
  tst_.Assemble(edge_scratch_, txns_);
  return tst_;
}

HwTwbg GraphBuilder::BuildGraph(const lock::LockTable& table) {
  Refresh(table);
  std::vector<TwbgEdge> edges;
  edges.reserve(total_edges_);
  for (const auto& [rid, list] : edge_lists_) {
    for (const TwbgEdge& e : list) {
      if (!e.IsSentinel()) edges.push_back(e);
    }
  }
  return HwTwbg::FromParts(std::move(edges), txns_);
}

}  // namespace twbg::core
