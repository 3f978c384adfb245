// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Step 1 of the periodic pass, incremental: one TST kept across passes
// over one or more lock tables with disjoint resources (one table for the
// sequential and continuous detectors, one per shard for the sharded
// pass).  Each table has its own GraphBuilder edge cache; a refresh brings
// every cache up to date and then patches the TST with what the caches
// logged:
//
//   * a transaction that joins the graph takes a slot (a freed one when
//     available) and keeps it until it leaves; the tid -> slot map counts
//     the tables whose cached resources hold the transaction;
//   * only the vertices with an edge on a rebuilt or dropped resource get a
//     new out-edge list: their kept edges with the changed resources'
//     edges removed and the new ones merged in by rid, each edge holding
//     its target's slot;
//   * the ascending-tid root order changes only for joins and leaves.
//
// A refresh therefore costs O(edges of the changed resources) plus an O(n)
// walk-state reset, with no per-edge vertex search, vertex-set union,
// edge-list merge or re-assembly.  The result is identical, in
// Tst::ToString() and in walk behaviour, to Tst::Build of the union of the
// tables, with one rule for capture skew: per-shard mirrors captured one
// at a time can show a transaction waiting on two shards at once, two W
// edges for one vertex, which a consistent table never produces (Axiom 1).
// The vertex keeps its lowest-rid W edge; the others wait aside and the
// lowest of them takes over when the kept one goes.  The walk runs on a
// self-consistent TST, and any resolution decided on the stale wait is
// rejected by the version-validated apply and retried next pass.

#ifndef TWBG_CORE_TST_BUILDER_H_
#define TWBG_CORE_TST_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "core/graph_builder.h"
#include "core/tst.h"

namespace twbg::core {

/// The one incremental Step 1 behind every detector.  Not thread-safe.
class TstBuilder {
 public:
  /// Refreshes every table's cache and patches the TST.  Tables are
  /// identified by position; handing over a different number of tables
  /// than last time starts the TST over.  The reference stays valid until
  /// the next call.
  Tst& RefreshTst(const std::vector<const lock::LockTable*>& tables);

  /// One-table form, for the sequential and continuous detectors.
  Tst& RefreshTst(const lock::LockTable& table);

  /// Refresh statistics summed across tables.
  const GraphCacheStats& stats() const { return stats_; }

 private:
  // A vertex's slot and the number of tables whose vertex set holds it.
  struct Vertex {
    size_t slot = 0;
    uint32_t tables = 0;
  };
  // A W edge that is not at the front of its vertex's list.
  struct AsideEdge {
    size_t slot = 0;
    TwbgEdge edge;
    size_t target = 0;
  };
  // A new edge of a vertex to patch, with the vertex's group (its
  // position in touched_).
  struct GroupedEdge {
    uint32_t group = 0;
    TwbgEdge edge;
    lock::ResourceId rid() const { return edge.rid; }
  };
  // A resource whose edges a vertex to patch replaces.
  struct ReplacedRid {
    uint32_t group = 0;
    lock::ResourceId resource = 0;
    lock::ResourceId rid() const { return resource; }
  };

  size_t SlotOf(lock::TransactionId tid) const {
    return vertices_.Find(tid)->slot;
  }
  // Sorts `items` into `grouped` by group, each group by rid; group g is
  // grouped[begin[g], begin[g + 1]).
  template <typename Item>
  void GroupBySource(const std::vector<Item>& items,
                     std::vector<Item>& grouped, std::vector<size_t>& begin);
  // Rebuilds the out-edge list of `slot`: its edges on resources other
  // than replaced_grouped_[replaced_first, replaced_last) plus
  // new_grouped_[first, last), the W edge chosen by the skew rule.
  void Patch(size_t slot, size_t first, size_t last, size_t replaced_first,
             size_t replaced_last);

  std::vector<GraphBuilder> builders_;  // one per table, index-stable
  common::FlatMap<lock::TransactionId, Vertex> vertices_;
  std::vector<AsideEdge> aside_;
  Tst tst_;
  GraphCacheStats stats_;
  // Per-refresh scratch, kept warm.
  std::vector<size_t> touched_;  // slots to patch, in first-touch order
  // Per slot: 1 + the slot's position in touched_, or 0 (untouched).
  std::vector<uint32_t> touch_group_;
  // One change's sources to patch and their groups.
  std::vector<lock::TransactionId> sources_;
  std::vector<uint32_t> groups_;
  // The vertices' new edges and replaced resources, as gathered and
  // grouped by vertex (each group in rid, then ECR, order).
  std::vector<GroupedEdge> new_edges_;
  std::vector<GroupedEdge> new_grouped_;
  std::vector<size_t> new_begin_;
  std::vector<ReplacedRid> replaced_;
  std::vector<ReplacedRid> replaced_grouped_;
  std::vector<size_t> replaced_begin_;
  std::vector<size_t> fill_;
  std::vector<AsideEdge> w_scratch_;
  std::vector<TwbgEdge> list_scratch_;
  std::vector<size_t> target_scratch_;
  std::vector<const lock::LockTable*> one_table_;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_TST_BUILDER_H_
