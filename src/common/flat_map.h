// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Slot-stable hash map for the lock-table hot path.
//
// std::map's node-per-entry layout made every Acquire/Release walk a
// pointer chase and every insert an allocation.  FlatMap keeps its entries
// in one slab (a vector of slots) and resolves keys through a power-of-two
// bucket array; each bucket heads a singly linked chain threaded through
// the slots by index.  Two contiguous arrays, no allocation per operation
// in steady state.
//
// Entries never move while their key is present.  Erase unlinks the key's
// slot from its chain and pushes the slot onto a free list; nothing else
// is touched.  TryEmplace pops a freed slot before it grows the slab and
// move-assigns a value-initialised V{} over the previous occupant, so a
// reused slot reads exactly like a new one, while a SmallVector member
// keeps its heap buffer through that assignment (a recycled
// lock::ResourceState keeps its holder/queue capacity).
//
// Pointer contract: a pointer to a value stays valid until its key is
// erased, clear() runs or the slab grows (an insert that finds no freed
// slot may reallocate it; Reserve sizes it up front).  Inserting or
// erasing other keys, and rehashing the buckets, never moves a value.
//
// Iteration contract: begin()/end() visit the live entries in slot order,
// skipping freed slots.  The order is deterministic for a given operation
// sequence but is NOT sorted; callers that need key order sort at the
// boundary (see lock::LockTable's ordered-iteration seam).  Erasing
// during iteration is safe (it only frees a slot); inserting is not.  An
// iteration costs O(slab), the most entries live at once since the last
// clear().  A copy is two array copies.

#ifndef TWBG_COMMON_FLAT_MAP_H_
#define TWBG_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace twbg::common {

/// SplitMix64 finalizer — full-avalanche mix of an integral key.  The ids
/// this library hashes (ResourceId, TransactionId) are small and often
/// sequential; mixing spreads them across the bucket array.
struct FlatHash {
  size_t operator()(uint64_t key) const {
    uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(z ^ (z >> 31));
  }
};

template <typename K, typename V, typename Hash = FlatHash>
class FlatMap {
 public:
  struct Entry {
    K key;
    V value;
  };

 private:
  // Links are slot indices + 1; 0 ends a chain or the free list.  A freed
  // slot's link carries kFree, which is how iteration skips it.
  static constexpr uint32_t kFree = 0x80000000u;

  struct Slot {
    // Next slot in the bucket chain (live) or in the free list (kFree set).
    uint32_t link;
    Entry entry;
  };

  template <typename SlotT, typename EntryT>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = EntryT*;
    using reference = EntryT&;

    Iter(SlotT* pos, SlotT* end) : pos_(pos), end_(end) { SkipFree(); }

    reference operator*() const { return pos_->entry; }
    pointer operator->() const { return &pos_->entry; }
    Iter& operator++() {
      ++pos_;
      SkipFree();
      return *this;
    }
    bool operator==(const Iter& other) const { return pos_ == other.pos_; }

   private:
    void SkipFree() {
      while (pos_ != end_ && (pos_->link & kFree) != 0) ++pos_;
    }

    SlotT* pos_;
    SlotT* end_;
  };

 public:
  using iterator = Iter<Slot, Entry>;
  using const_iterator = Iter<const Slot, const Entry>;

  FlatMap() = default;
  FlatMap(const FlatMap&) = default;
  FlatMap& operator=(const FlatMap&) = default;
  // A moved-from map is empty, counters included.
  FlatMap(FlatMap&& other) noexcept { *this = std::move(other); }
  FlatMap& operator=(FlatMap&& other) noexcept {
    if (this == &other) return *this;
    slots_ = std::move(other.slots_);
    buckets_ = std::move(other.buckets_);
    mask_ = std::exchange(other.mask_, 0);
    free_ = std::exchange(other.free_, 0);
    size_ = std::exchange(other.size_, 0);
    other.slots_.clear();
    other.buckets_.clear();
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return {slots_.data(), slots_.data() + slots_.size()}; }
  iterator end() {
    Slot* last = slots_.data() + slots_.size();
    return {last, last};
  }
  const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const {
    const Slot* last = slots_.data() + slots_.size();
    return {last, last};
  }

  /// Drops every entry and the slab (values are destroyed); the bucket
  /// array keeps its size.
  void clear() {
    slots_.clear();
    std::fill(buckets_.begin(), buckets_.end(), 0);
    free_ = 0;
    size_ = 0;
  }

  /// Sizes the slab and the buckets for `n` entries, so the first `n`
  /// inserts neither move a value nor rehash.
  void Reserve(size_t n) {
    slots_.reserve(n);
    if (n * 2 > buckets_.size()) Rehash(NextPow2(n * 2));
  }

  V* Find(const K& key) {
    const uint32_t s = FindSlot(key);
    return s == 0 ? nullptr : &slots_[s - 1].entry.value;
  }

  const V* Find(const K& key) const {
    const uint32_t s = FindSlot(key);
    return s == 0 ? nullptr : &slots_[s - 1].entry.value;
  }

  bool Contains(const K& key) const { return FindSlot(key) != 0; }

  /// Finds `key`, inserting it with a value-initialised V{} if absent.
  /// Returns {value pointer, inserted?}.
  std::pair<V*, bool> TryEmplace(const K& key) {
    if (buckets_.empty()) Rehash(kMinBuckets);
    const size_t hash = Hash{}(key);
    for (uint32_t s = buckets_[hash & mask_]; s != 0; s = slots_[s - 1].link) {
      if (slots_[s - 1].entry.key == key) {
        return {&slots_[s - 1].entry.value, false};
      }
    }
    if ((size_ + 1) * 2 > buckets_.size()) Rehash(buckets_.size() * 2);
    uint32_t s = free_;
    if (s != 0) {
      Slot& reused = slots_[s - 1];
      free_ = reused.link & ~kFree;
      reused.entry.key = key;
      reused.entry.value = V{};
    } else {
      TWBG_CHECK(slots_.size() < kFree - 1);
      slots_.push_back(Slot{0, Entry{key, V{}}});
      s = static_cast<uint32_t>(slots_.size());
    }
    uint32_t& head = buckets_[hash & mask_];
    slots_[s - 1].link = head;
    head = s;
    ++size_;
    return {&slots_[s - 1].entry.value, true};
  }

  V& operator[](const K& key) { return *TryEmplace(key).first; }

  /// Erases `key`: unlinks its slot and frees it for reuse; no other entry
  /// moves.  Returns true if the key was present.
  bool Erase(const K& key) {
    if (size_ == 0) return false;
    uint32_t* link = &buckets_[Hash{}(key) & mask_];
    while (*link != 0) {
      const uint32_t s = *link;
      Slot& slot = slots_[s - 1];
      if (slot.entry.key == key) {
        *link = slot.link;
        slot.link = kFree | free_;
        free_ = s;
        --size_;
        return true;
      }
      link = &slot.link;
    }
    return false;
  }

 private:
  static constexpr size_t kMinBuckets = 16;

  static size_t NextPow2(size_t n) {
    size_t p = kMinBuckets;
    while (p < n) p *= 2;
    return p;
  }

  // Slot index + 1 of `key`, or 0 when absent.
  uint32_t FindSlot(const K& key) const {
    if (size_ == 0) return 0;
    uint32_t s = buckets_[Hash{}(key) & mask_];
    while (s != 0 && !(slots_[s - 1].entry.key == key)) s = slots_[s - 1].link;
    return s;
  }

  // Rebuilds the chains over `n` buckets; slots stay where they are.
  void Rehash(size_t n) {
    buckets_.assign(n, 0);
    mask_ = n - 1;
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if ((slot.link & kFree) != 0) continue;
      uint32_t& head = buckets_[Hash{}(slot.entry.key) & mask_];
      slot.link = head;
      head = static_cast<uint32_t>(i + 1);
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> buckets_;
  size_t mask_ = 0;
  uint32_t free_ = 0;  // head of the free list
  size_t size_ = 0;    // live entries
};

}  // namespace twbg::common

#endif  // TWBG_COMMON_FLAT_MAP_H_
