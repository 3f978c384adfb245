// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Incremental ECR edge cache: keeps one edge vector (sentinels included)
// per resource, keyed on lock::ResourceState::version(), and refreshes
// only the resources the lock table's mutation journal reports dirty.
// A detection pass after k mutations therefore recomputes ECR 1-3 for k
// resources instead of the whole table; concatenating the cached
// per-resource vectors in ascending rid order reproduces BuildEcrEdges
// byte-for-byte (the differential test in tests/incremental_build_test.cc
// proves it).  See docs/PERFORMANCE.md for the invalidation contract.
//
// Each observer (detector instance) owns its own GraphBuilder; the lock
// table's journal is a shared read-only log, so any number of builders can
// track one table independently.  A builder pointed at a different table
// (or a copy — copies get a fresh uid) falls back to a version-compare
// sweep that still reuses every unchanged resource's cached edges.
//
// Every refresh also logs what it changed — each rebuilt or dropped
// resource with its old and new edges, and the transactions that joined
// or left the builder's vertex set — which is all core::TstBuilder needs
// to patch its persistent TST instead of re-assembling it.

#ifndef TWBG_CORE_GRAPH_BUILDER_H_
#define TWBG_CORE_GRAPH_BUILDER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/flat_map.h"
#include "core/twbg.h"
#include "lock/lock_table.h"

namespace twbg::core {

/// What one cache refresh did — surfaced in ResolutionReport and
/// sim/metrics for observability.
struct GraphCacheStats {
  /// Resources whose ECR edges were recomputed this refresh.
  size_t num_dirty_resources = 0;
  /// Resources whose cached edges were reused untouched.
  size_t num_cached_resources = 0;
  /// Edges recomputed vs served from cache (sentinels included).
  size_t edges_rebuilt = 0;
  size_t edges_reused = 0;
  /// True when the journal could not answer (first refresh, table copy,
  /// or the reader fell behind the journal's capacity) and the refresh
  /// fell back to a full version-compare sweep.
  bool full_sweep = false;
};

/// Incremental per-resource edge cache of one lock table.  Not
/// thread-safe itself; core::TstBuilder gives each table its own builder
/// (refreshed concurrently against disjoint tables) and applies their
/// change logs to one TST serially.
class GraphBuilder {
 public:
  /// One resource whose cached edges a refresh rebuilt or dropped: its
  /// edges before the refresh are retired_edges()[old_begin, old_end),
  /// and after it fresh_edges()[new_begin, new_end) (empty when dropped
  /// or edge-free).
  struct ResourceChange {
    lock::ResourceId rid = 0;
    size_t old_begin = 0;
    size_t old_end = 0;
    size_t new_begin = 0;
    size_t new_end = 0;
  };

  /// Refreshes the cache and assembles an H/W-TWBG snapshot (no sentinel
  /// edges) — identical to HwTwbg::Build(table).
  HwTwbg BuildGraph(const lock::LockTable& table);

  /// Brings the cache, edge lists and vertex set up to date with `table`
  /// (journal fast path or full version-compare sweep) and logs what
  /// changed.
  void Refresh(const lock::LockTable& table);

  /// ECR 1-3 output (sentinels included) of every cached resource that
  /// has at least one edge, by rid; concatenated in order it is the
  /// table's whole edge list.  Built on each call (O(cached resources)).
  std::map<lock::ResourceId, std::vector<TwbgEdge>> edge_lists() const;

  /// Change log of the most recent Refresh, valid until the next one.
  /// Every resource the refresh rebuilt or dropped that had or has edges
  /// appears once, with its edges before and after in these two buffers.
  const std::vector<ResourceChange>& changes() const { return changes_; }
  const std::vector<TwbgEdge>& retired_edges() const { return retired_; }
  const std::vector<TwbgEdge>& fresh_edges() const { return fresh_; }
  /// The transactions that entered the vertex set (the participants of
  /// the cached resources) and that left it during the refresh.  One
  /// transaction can both leave and join in one refresh, in either order.
  const std::vector<lock::TransactionId>& joined() const { return joined_; }
  const std::vector<lock::TransactionId>& left() const { return left_; }

  /// Statistics of the most recent refresh.
  const GraphCacheStats& stats() const { return stats_; }

 private:
  // Cached state of one resource.
  struct ResourceCache {
    // lock::ResourceState::version() the entry was computed at.
    uint64_t version = 0;
    // Transactions appearing on the resource (holders, then queue).
    std::vector<lock::TransactionId> txns;
    // ECR 1-3 output, sentinels included.
    std::vector<TwbgEdge> edges;
  };

  void Rebuild(const lock::ResourceState& state, ResourceCache& entry);
  void Drop(lock::ResourceId rid, ResourceCache& entry);
  // Refcount maintenance for the vertex set; logs joins and leaves.
  void Retain(lock::TransactionId tid);
  void Release(lock::TransactionId tid);

  common::FlatMap<lock::ResourceId, ResourceCache> cache_;
  uint64_t table_uid_ = 0;
  uint64_t synced_seq_ = 0;
  size_t total_edges_ = 0;
  // tid -> number of cached resources it appears on.  The key set is the
  // graph's vertex set.
  common::FlatMap<lock::TransactionId, uint32_t> txn_refs_;
  // The participants a Rebuild is about to cache (swapped into the entry).
  std::vector<lock::TransactionId> txn_scratch_;
  std::vector<lock::ResourceId> dirty_scratch_;
  // Change log of the last refresh (see changes()).
  std::vector<ResourceChange> changes_;
  std::vector<TwbgEdge> retired_;
  std::vector<TwbgEdge> fresh_;
  std::vector<lock::TransactionId> joined_;
  std::vector<lock::TransactionId> left_;
  GraphCacheStats stats_;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_GRAPH_BUILDER_H_
