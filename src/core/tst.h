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
// Layout: flat, allocation-light.  Entries live in a dense vector parallel
// to a sorted id vector (binary-searched by At), and every entry's
// `waited` list is a span into one central per-TST edge array grouped by
// source vertex.  Assemble() rebuilds the whole structure in place without
// freeing storage, which is what makes the incremental GraphBuilder's
// per-pass refresh cheap.  See docs/PERFORMANCE.md.

#ifndef TWBG_CORE_TST_H_
#define TWBG_CORE_TST_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ecr.h"
#include "lock/lock_table.h"

namespace twbg::core {

/// One TST entry.
struct TstEntry {
  /// 0 = unvisited, kRoot = walk root, otherwise 1 + the dense index (see
  /// Tst::EntryAt) of the vertex we descended from.
  int64_t ancestor = 0;
  /// Index of the next edge to explore in `waited`; >= waited.size()
  /// means "nil" (exhausted, or forced nil for victims / AV members).
  size_t current = 0;
  /// Resource in whose queue this transaction waits, if any.
  std::optional<lock::ResourceId> pr;
  /// Outgoing edges: at most one W edge first (possibly the sentinel with
  /// to == 0), then H edges in ECR construction order.  A view into the
  /// owning Tst's central edge array — never outlives the Tst and is
  /// invalidated by Assemble().
  std::span<const TwbgEdge> waited;

  static constexpr int64_t kRoot = -1;

  bool CurrentIsNil() const { return current >= waited.size(); }
  void SetCurrentNil() { current = waited.size(); }
  const TwbgEdge& CurrentEdge() const { return waited[current]; }
};

/// Position of `tid` in the ascending, duplicate-free `sorted`, or
/// sorted.size() when absent.  Branch-free: Step 1 runs one search per edge
/// source and target, and a mispredicted branch per halving step would
/// cost more than the comparisons.
size_t SortedIndexOf(const std::vector<lock::TransactionId>& sorted,
                     lock::TransactionId tid);

/// The TST.  Built fresh by Build() (scratch Step 1) or refreshed in place
/// by core::GraphBuilder (incremental Step 1); the paper materializes only
/// the H edges then (W edges live in its lock table), which is
/// observationally identical.
class Tst {
 public:
  Tst() = default;
  // Copies must re-point the entries' spans at the new edge array; moves
  // keep the heap buffers and need no fixup.
  Tst(const Tst& other);
  Tst& operator=(const Tst& other);
  Tst(Tst&&) = default;
  Tst& operator=(Tst&&) = default;

  /// Builds the complete TST (W edges with sentinels + H edges via ECR)
  /// for every transaction appearing in `table`.
  static Tst Build(const lock::LockTable& table);

  /// Assembles a TST from a pre-built edge list (which must include
  /// sentinel W edges) plus the full vertex set — used by the scoped
  /// builder.  Edge order must follow the ascending-rid ECR construction
  /// order for walk behaviour to match Build().
  static Tst FromEdges(const std::vector<TwbgEdge>& edges,
                       const std::vector<lock::TransactionId>& txns);

  /// Rebuilds the table in place from `edges` (sentinels included, ECR
  /// construction order) and the vertex set `txns` (duplicates and any
  /// order allowed; edge sources are added implicitly).  Resets all walk
  /// state.  Reuses existing storage, so a long-lived Tst refreshed every
  /// pass stops allocating once warm.  When `txns` is strictly ascending
  /// and holds every edge source — what the incremental builders pass —
  /// it is used as is: no sort, one lookup per edge source.  Any other
  /// input takes the sorting path; both give the same table.
  void Assemble(const std::vector<TwbgEdge>& edges,
                const std::vector<lock::TransactionId>& txns);

  TstEntry& At(lock::TransactionId tid);
  const TstEntry& At(lock::TransactionId tid) const;
  bool Contains(lock::TransactionId tid) const;

  /// Position of `tid` in Transactions(), or size() when absent.
  size_t IndexOf(lock::TransactionId tid) const;

  /// Dense accessors — the walk's hot path uses these instead of the
  /// binary-searching At().  `index` must be < size().
  TstEntry& EntryAt(size_t index) { return entries_[index]; }
  const TstEntry& EntryAt(size_t index) const { return entries_[index]; }
  lock::TransactionId TidAt(size_t index) const { return tids_[index]; }

  /// Dense index of waited[edge_offset].to for vertex `index`, precomputed
  /// by Assemble(); kNoVertex for sentinel edges, size() for targets not
  /// in the table.
  size_t EdgeTargetIndex(size_t index, size_t edge_offset) const {
    return edge_targets_[offsets_[index] + edge_offset];
  }

  static constexpr size_t kNoVertex = static_cast<size_t>(-1);

  /// Transaction ids ascending — the Step 2 outer loop order.
  const std::vector<lock::TransactionId>& Transactions() const {
    return tids_;
  }

  size_t size() const { return entries_.size(); }

  /// Total number of edges (including sentinels).
  size_t NumEdges() const { return edges_.size(); }

  /// Figure 5.1-style dump: one line per transaction with pr and the
  /// waited list.
  std::string ToString() const;

 private:
  // Re-points every entry's span at this object's edges_ (after a copy).
  void RepointSpans();

  std::vector<lock::TransactionId> tids_;  // sorted, unique
  std::vector<TstEntry> entries_;          // parallel to tids_
  // Central edge storage: one contiguous group per vertex, in tids_
  // order; within a group the W edge (if any) precedes the H edges.
  std::vector<TwbgEdge> edges_;
  // Parallel to edges_: dense index of each edge's target (kNoVertex for
  // sentinels), so the walk never binary-searches.
  std::vector<size_t> edge_targets_;
  // Assembly scratch (group offsets / fill cursors / each input edge's
  // source index), kept warm.
  std::vector<size_t> offsets_;
  std::vector<size_t> fill_;
  std::vector<size_t> edge_sources_;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_TST_H_
