// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Incremental ECR edge cache: keeps one edge vector (sentinels included)
// per resource, keyed on lock::ResourceState::version(), and refreshes
// only the resources the lock table's mutation journal reports dirty.
// A detection pass after k mutations therefore recomputes ECR 1-3 for k
// resources instead of the whole table; concatenating the cached
// per-resource vectors in ascending rid order reproduces BuildEcrEdges
// byte-for-byte (the differential test in tests/incremental_build_test.cc
// proves it).  Only resources with at least one edge keep a vector, in an
// rid-ordered index of their own, so assembly visits those and skips the
// (usually far more numerous) resources whose ECR output is empty.  See
// docs/PERFORMANCE.md for the invalidation contract.
//
// Each observer (detector instance) owns its own GraphBuilder; the lock
// table's journal is a shared read-only log, so any number of builders can
// track one table independently.  A builder pointed at a different table
// (or a copy — copies get a fresh uid) falls back to a version-compare
// sweep that still reuses every unchanged resource's cached edges.

#ifndef TWBG_CORE_GRAPH_BUILDER_H_
#define TWBG_CORE_GRAPH_BUILDER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/flat_map.h"
#include "core/tst.h"
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

/// Incremental builder of the detection pass's graph structures.  Not
/// thread-safe itself; the sharded pass gives each shard its own builder
/// (refreshed concurrently against disjoint tables) and merges the
/// per-shard caches serially (core::ShardedTstBuilder).
class GraphBuilder {
 public:
  /// Refreshes the cache against `table` and reassembles the persistent
  /// TST (W edges with sentinels + H edges, walk state reset).  The
  /// returned reference stays valid until the next Refresh/Build call and
  /// is identical to Tst::Build(table) in content and walk behaviour.
  Tst& RefreshTst(const lock::LockTable& table);

  /// Refreshes the cache and assembles an H/W-TWBG snapshot (no sentinel
  /// edges) — identical to HwTwbg::Build(table).
  HwTwbg BuildGraph(const lock::LockTable& table);

  /// Brings the cache, edge lists and vertex set up to date with `table`
  /// (journal fast path or full version-compare sweep) WITHOUT assembling
  /// a TST — the per-shard half of the sharded Step 1, whose assembly is a
  /// k-way merge across shards (core::ShardedTstBuilder).
  void Refresh(const lock::LockTable& table);

  /// ECR 1-3 output (sentinels included) of every cached resource that
  /// has at least one edge, in ascending rid order, valid after Refresh.
  /// Concatenated in order it is the table's whole edge list.
  const std::map<lock::ResourceId, std::vector<TwbgEdge>>& edge_lists()
      const {
    return edge_lists_;
  }

  /// Vertex set (ascending, duplicate-free) of the cached resources, valid
  /// after Refresh.
  const std::vector<lock::TransactionId>& txns() const { return txns_; }

  /// Statistics of the most recent refresh.
  const GraphCacheStats& stats() const { return stats_; }

 private:
  // Cached state of one resource.
  struct ResourceCache {
    // lock::ResourceState::version() the entry was computed at.
    uint64_t version = 0;
    // Transactions appearing on the resource (holders, then queue).
    std::vector<lock::TransactionId> txns;
  };

  void Rebuild(const lock::ResourceState& state, ResourceCache& entry);
  void Drop(lock::ResourceId rid, ResourceCache& entry);
  // Removes `rid`'s edge list, if any, from edge_lists_.
  void DropEdges(lock::ResourceId rid);
  // Refcount maintenance for the vertex set; keeps txns_ current.
  void RetainTxns(const std::vector<lock::TransactionId>& txns);
  void ReleaseTxns(const std::vector<lock::TransactionId>& txns);

  // Unordered: only edge_lists_ needs rid order.
  common::FlatMap<lock::ResourceId, ResourceCache> cache_;
  // The edge-bearing subset of cache_'s resources and their edges, in
  // ascending rid order.  Held by value, so copies and moves of the
  // builder carry a valid index.
  std::map<lock::ResourceId, std::vector<TwbgEdge>> edge_lists_;
  uint64_t table_uid_ = 0;
  uint64_t synced_seq_ = 0;
  size_t total_edges_ = 0;
  // tid -> number of cached resources it appears on.  The key set is the
  // graph's vertex set; txns_ mirrors it sorted, updated by insertion and
  // erasure only when a tid joins or leaves it.
  common::FlatMap<lock::TransactionId, uint32_t> txn_refs_;
  std::vector<lock::TransactionId> txns_;
  // The participants a Rebuild is about to cache (swapped into the entry).
  std::vector<lock::TransactionId> txn_scratch_;
  std::vector<TwbgEdge> edge_scratch_;
  // One resource's fresh ECR output; swapped into edge_lists_, so it
  // keeps the replaced list's capacity for the next rebuild.
  std::vector<TwbgEdge> rebuild_scratch_;
  std::vector<lock::ResourceId> dirty_scratch_;
  Tst tst_;
  GraphCacheStats stats_;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_GRAPH_BUILDER_H_
