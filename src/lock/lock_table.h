// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The resource status table (RST of the paper's §5): one ResourceState per
// currently locked resource.  Iteration order is deterministic (ordered by
// ResourceId) so that detection passes and experiments are reproducible.
//
// Storage is a slot-stable flat hash map (common/flat_map.h): a slab of
// states plus a bucket array instead of one rb-tree node per resource, so
// the Acquire/Release hot path does no pointer chasing and, in steady
// state, no allocation.  An erased state stays in its freed slot, and the
// next GetOrCreate that reuses the slot Reset()s it: the holder/queue
// capacity it had grown survives without a separate pool, and no state is
// ever moved.  Because the hash map iterates in slot order, the
// deterministic rid order the detectors and reports rely on lives in an
// *ordered-iteration seam*: a lazily sorted rid index rebuilt only after
// an insert or erase changed the membership.  begin()/end() iterate
// through that seam, so `for (const auto& [rid, state] : table)` sees
// ascending rids exactly as the std::map layout did.
//
// The table also keeps a *mutation journal* for derived caches (the
// incremental ECR edge cache of core::GraphBuilder): every path that can
// mutate a resource — GetOrCreate, FindMutable, EraseIfFree — appends the
// resource id under a monotone sequence number.  A reader that remembers
// the sequence number of its last sync can ask for exactly the resources
// touched since then (DirtySince) instead of sweeping the whole table.
// Marking is conservative (FindMutable counts as a mutation whether or not
// the caller writes) — a false positive only costs one redundant
// per-resource rebuild, never a stale cache.  See docs/PERFORMANCE.md.

#ifndef TWBG_LOCK_LOCK_TABLE_H_
#define TWBG_LOCK_LOCK_TABLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"
#include "lock/resource_state.h"

namespace twbg::lock {

/// Owning collection of per-resource lock state.
class LockTable {
 public:
  /// All resources created through this table use `policy` for admission
  /// checks (kGroupMode is the §2 ablation; see resource_state.h).
  explicit LockTable(AdmissionPolicy policy = AdmissionPolicy::kTotalMode)
      : policy_(policy) {}
  /// Copies get a fresh identity: derived caches keyed on uid() treat the
  /// copy as a brand-new table and fall back to a full sweep.
  LockTable(const LockTable& other);
  LockTable& operator=(const LockTable& other);

  AdmissionPolicy policy() const { return policy_; }

  /// Returns the state for `rid`, creating a free entry if absent.
  /// Journaled as a mutation (the caller receives mutable access).
  ResourceState& GetOrCreate(ResourceId rid);

  /// Returns the state for `rid` or nullptr.  The mutable variant is
  /// journaled as a mutation of `rid`.
  const ResourceState* Find(ResourceId rid) const;
  ResourceState* FindMutable(ResourceId rid);

  /// Drops the entry for `rid` if it is free (no holders, no queue).  Its
  /// slot, capacity included, is reused by a later GetOrCreate.
  void EraseIfFree(ResourceId rid);

  size_t size() const { return resources_.size(); }
  bool empty() const { return resources_.empty(); }

  /// Ordered-iteration seam: a forward iterator over (rid, state) pairs
  /// in ascending rid order, backed by the lazily sorted rid index.
  /// Dereferences to a proxy pair, so the structured-binding idiom
  /// `for (const auto& [rid, state] : table)` works unchanged; `state`
  /// binds const — mutate through FindMutable, never mid-iteration.
  class const_iterator {
   public:
    using value_type = std::pair<ResourceId, const ResourceState&>;

    const_iterator(const LockTable* table, size_t pos)
        : table_(table), pos_(pos) {}

    value_type operator*() const {
      const ResourceId rid = table_->ordered_[pos_];
      return {rid, *table_->resources_.Find(rid)};
    }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return pos_ == other.pos_;
    }
    bool operator!=(const const_iterator& other) const {
      return pos_ != other.pos_;
    }

   private:
    const LockTable* table_;
    size_t pos_;
  };

  /// Ordered iteration over (rid, state), ascending by rid.
  const_iterator begin() const {
    RefreshOrder();
    return const_iterator(this, 0);
  }
  const_iterator end() const { return const_iterator(this, ordered_.size()); }

  /// The sorted rid index itself (same seam begin()/end() walk).
  const std::vector<ResourceId>& OrderedRids() const {
    RefreshOrder();
    return ordered_;
  }

  /// Process-unique table identity (refreshed on copy).  A cache that
  /// observes a different uid than last time must resynchronize from
  /// scratch.
  uint64_t uid() const { return uid_; }

  /// Sequence number of the latest journaled mutation (0 = pristine).
  uint64_t mutation_seq() const { return seq_; }

  /// Appends to `out` every resource id mutated after `since`.  Returns
  /// false — and appends nothing — when the journal cannot answer (the
  /// oldest retained entry is newer than `since`, or `since` lies in the
  /// future, i.e. the reader synced against a different table); the
  /// caller must then fall back to a full sweep keyed on
  /// ResourceState::version().  Ids may repeat; callers dedupe.
  bool DirtySince(uint64_t since, std::vector<ResourceId>* out) const;

  /// Checks every resource's invariants.
  Status CheckInvariants() const;

  /// Multi-line dump in the paper's notation.
  std::string ToString() const;

 private:
  // Bounded journal: coalesces consecutive hits on the same resource and
  // drops the oldest entries past the capacity (readers that fell that
  // far behind resynchronize with a full sweep).
  static constexpr size_t kJournalCapacity = 1u << 16;

  void MarkDirty(ResourceId rid);
  // Re-sorts the rid index if an insert/erase invalidated it.  Lazy and
  // `mutable` so ordered reads stay const; single-writer like the rest of
  // the table.
  void RefreshOrder() const;
  static uint64_t NextTableUid();

  AdmissionPolicy policy_ = AdmissionPolicy::kTotalMode;
  common::FlatMap<ResourceId, ResourceState> resources_;
  // Ordered-iteration seam: ascending rids, rebuilt lazily when dirty.
  mutable std::vector<ResourceId> ordered_;
  mutable bool order_dirty_ = false;
  uint64_t uid_ = NextTableUid();
  uint64_t seq_ = 0;
  // Sequence numbers at or below this were dropped from the journal.
  uint64_t trimmed_through_ = 0;
  // Contiguous journal ring: live entries are [journal_head_, size());
  // the consumed prefix is compacted away once it dominates the buffer.
  std::vector<std::pair<uint64_t, ResourceId>> journal_;
  size_t journal_head_ = 0;
};

}  // namespace twbg::lock

#endif  // TWBG_LOCK_LOCK_TABLE_H_
