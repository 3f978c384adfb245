// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The Transaction Status Table (TST) of §5 — the internal structure the
// periodic detection-resolution algorithm walks.  One entry per known
// transaction with:
//
//   * waited  — the outgoing H/W-TWBG edges (who waits on this
//               transaction).  The W-labeled edge, if any, is kept at the
//               front of the list (the paper requires it so that longer
//               cycles through queues are detected before the inner ones,
//               see Example 5.1), followed by H-labeled edges;
//   * pr      — the resource in whose queue the transaction is blocked;
//   * ancestor/current — the directed-walk bookkeeping of Step 2.
//
// The paper encodes "nil" currents as a null pointer; we use an index one
// past the end of `waited`.
//
// Layout: every vertex owns a slot.  Slot-indexed arrays hold the entry,
// the tid and the start of the vertex's out-edge list in one central edge
// arena; every arena edge is paired with its target's slot, so the walk
// never searches.  The ascending-tid root order (Transactions(), with
// RootSlot(i) the slot of its i-th tid) is Step 2's outer loop.  Build()
// and FromEdges() lay a table out packed, slot i holding the i-th smallest
// tid.  core::TstBuilder keeps one Tst across passes instead: a vertex
// keeps its slot while it stays in the graph, freed slots are reused, the
// root order is patched only when a vertex joins or leaves, and only the
// vertices whose edges changed get a new list (appended to the arena, which
// is repacked once its dead edges outnumber the live ones).  See
// docs/PERFORMANCE.md.

#ifndef TWBG_CORE_TST_H_
#define TWBG_CORE_TST_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ecr.h"
#include "lock/lock_table.h"

namespace twbg::core {

/// One TST entry.
struct TstEntry {
  /// 0 = unvisited, kRoot = walk root, otherwise 1 + the slot (see
  /// Tst::EntryAt) of the vertex we descended from.
  int64_t ancestor = 0;
  /// Index of the next edge to explore in `waited`; >= waited.size()
  /// means "nil" (exhausted, or forced nil for victims / AV members).
  size_t current = 0;
  /// Resource in whose queue this transaction waits, if any.
  std::optional<lock::ResourceId> pr;
  /// Outgoing edges: at most one W edge first (possibly the sentinel with
  /// to == 0), then H edges in ascending rid and, within a resource, ECR
  /// construction order.  A view into the owning Tst's edge arena — never
  /// outlives the Tst and is invalidated when the Tst is patched.
  std::span<const TwbgEdge> waited;

  static constexpr int64_t kRoot = -1;

  bool CurrentIsNil() const { return current >= waited.size(); }
  void SetCurrentNil() { current = waited.size(); }
  const TwbgEdge& CurrentEdge() const { return waited[current]; }
};

/// Position of `tid` in the ascending, duplicate-free `sorted`, or
/// sorted.size() when absent.  Branch-free: a mispredicted branch per
/// halving step would cost more than the comparisons.
size_t SortedIndexOf(const std::vector<lock::TransactionId>& sorted,
                     lock::TransactionId tid);

/// The TST.  Built fresh by Build() (scratch Step 1) or kept across passes
/// and patched by core::TstBuilder (incremental Step 1); the paper
/// materializes only the H edges then (W edges live in its lock table),
/// which is observationally identical.
class Tst {
 public:
  Tst() = default;
  // Copies must re-point the entries' spans at the new edge arena; moves
  // keep the heap buffers and need no fixup.
  Tst(const Tst& other);
  Tst& operator=(const Tst& other);
  Tst(Tst&&) = default;
  Tst& operator=(Tst&&) = default;

  /// Builds the complete TST (W edges with sentinels + H edges via ECR)
  /// for every transaction appearing in `table`.  The from-scratch
  /// reference every incremental Step 1 is tested against.
  static Tst Build(const lock::LockTable& table);

  /// Assembles a TST from a pre-built edge list (which must include
  /// sentinel W edges, and at most one W edge per source) plus a vertex
  /// set in any order, duplicates allowed (edge sources are added
  /// implicitly) — used by the scoped builder.  Edge order must follow
  /// the ascending-rid ECR construction order for walk behaviour to match
  /// Build().
  static Tst FromEdges(const std::vector<TwbgEdge>& edges,
                       const std::vector<lock::TransactionId>& txns);

  TstEntry& At(lock::TransactionId tid);
  const TstEntry& At(lock::TransactionId tid) const;
  bool Contains(lock::TransactionId tid) const;

  /// Slot of `tid`, or kNoVertex when absent.  O(log n).
  size_t SlotOf(lock::TransactionId tid) const;

  /// Slot accessors — the walk's hot path uses these instead of the
  /// searching At().  `slot` must be < num_slots().
  TstEntry& EntryAt(size_t slot) { return entries_[slot]; }
  const TstEntry& EntryAt(size_t slot) const { return entries_[slot]; }
  lock::TransactionId TidAt(size_t slot) const { return slot_tids_[slot]; }

  /// Slot of waited[edge_offset].to for the vertex in `slot`; kNoVertex
  /// for sentinel edges and for targets not in the table.
  size_t EdgeTargetIndex(size_t slot, size_t edge_offset) const {
    return edge_targets_[offsets_[slot] + edge_offset];
  }

  static constexpr size_t kNoVertex = static_cast<size_t>(-1);

  /// Transaction ids ascending — the Step 2 outer loop order.
  const std::vector<lock::TransactionId>& Transactions() const {
    return tids_;
  }
  /// Slot of Transactions()[i].
  size_t RootSlot(size_t i) const { return order_[i]; }

  /// Number of vertices (n).
  size_t size() const { return tids_.size(); }
  /// Slot capacity: every slot index is below it.  Unused slots have no
  /// edges and a nil current.
  size_t num_slots() const { return entries_.size(); }

  /// Total number of edges (including sentinels).
  size_t NumEdges() const { return num_edges_; }

  /// Figure 5.1-style dump: one line per transaction with pr and the
  /// waited list, in ascending tid order.
  std::string ToString() const;

 private:
  friend class TstBuilder;

  // Incremental maintenance, driven by core::TstBuilder.  A slot taken by
  // AddVertex has no edges until SetEdges gives it some; RemoveVertex
  // takes a slot whose edges are gone.  FinishPatch must follow a batch
  // of these calls before the table is walked or read.
  size_t AddVertex(lock::TransactionId tid);
  void RemoveVertex(size_t slot);
  // Replaces the out-edge list of `slot` (W edge, if any, first) and its
  // target slots.  Neither span may point into this Tst.
  void SetEdges(size_t slot, std::span<const TwbgEdge> edges,
                std::span<const size_t> targets);
  // The edge arena's target slots of `slot`'s list, parallel to waited.
  std::span<const size_t> TargetsOf(size_t slot) const {
    return std::span<const size_t>(edge_targets_.data() + offsets_[slot],
                                   entries_[slot].waited.size());
  }
  // Patches the root order for the vertices added and removed since the
  // last call, repacks the arena when half of it is dead, and resets the
  // walk state of every slot.
  void FinishPatch();

  // Re-points every entry's span at this object's edge arena (after a
  // copy or an arena reallocation).
  void RepointSpans();

  std::vector<TstEntry> entries_;              // per slot
  std::vector<lock::TransactionId> slot_tids_;  // per slot; 0 when unused
  std::vector<size_t> offsets_;                // per slot: list start
  std::vector<size_t> free_slots_;
  std::vector<lock::TransactionId> tids_;  // ascending, unique
  std::vector<size_t> order_;              // parallel to tids_: slots
  // Edge arena: each slot's list is one contiguous run; runs of removed
  // or replaced lists stay behind as dead edges until the next repack.
  std::vector<TwbgEdge> edges_;
  // Parallel to edges_: the slot of each edge's target (kNoVertex for
  // sentinels).
  std::vector<size_t> edge_targets_;
  size_t num_edges_ = 0;  // live edges
  // Patch bookkeeping and scratch, kept warm across passes.
  std::vector<std::pair<lock::TransactionId, size_t>> joined_;
  bool vertex_left_ = false;
  std::vector<TwbgEdge> edge_scratch_;
  std::vector<size_t> target_scratch_;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_TST_H_
