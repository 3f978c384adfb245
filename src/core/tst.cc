// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/tst.h"

#include <algorithm>

#include "common/string_util.h"

namespace twbg::core {

namespace {

// Dead arena edges tolerated beyond the live count before FinishPatch
// repacks, so small tables do not repack on every pass.
constexpr size_t kArenaSlack = 64;

}  // namespace

Tst::Tst(const Tst& other)
    : entries_(other.entries_),
      slot_tids_(other.slot_tids_),
      offsets_(other.offsets_),
      free_slots_(other.free_slots_),
      tids_(other.tids_),
      order_(other.order_),
      edges_(other.edges_),
      edge_targets_(other.edge_targets_),
      num_edges_(other.num_edges_),
      joined_(other.joined_),
      vertex_left_(other.vertex_left_) {
  RepointSpans();
}

Tst& Tst::operator=(const Tst& other) {
  if (this == &other) return *this;
  Tst copy(other);
  *this = std::move(copy);
  return *this;
}

void Tst::RepointSpans() {
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    TstEntry& entry = entries_[slot];
    entry.waited = std::span<const TwbgEdge>(edges_.data() + offsets_[slot],
                                             entry.waited.size());
  }
}

Tst Tst::Build(const lock::LockTable& table) {
  std::vector<lock::TransactionId> txns;
  for (const auto& [rid, state] : table) {
    for (const lock::HolderEntry& h : state.holders()) txns.push_back(h.tid);
    for (const lock::QueueEntry& q : state.queue()) txns.push_back(q.tid);
  }
  return FromEdges(BuildEcrEdges(table, /*include_sentinels=*/true), txns);
}

Tst Tst::FromEdges(const std::vector<TwbgEdge>& edges,
                   const std::vector<lock::TransactionId>& txns) {
  Tst tst;
  std::vector<lock::TransactionId>& tids = tst.tids_;
  tids = txns;
  for (const TwbgEdge& e : edges) tids.push_back(e.from);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  const size_t n = tids.size();
  tst.slot_tids_ = tids;
  tst.order_.resize(n);
  for (size_t i = 0; i < n; ++i) tst.order_[i] = i;
  tst.entries_.assign(n, TstEntry{});

  // Counting sort of the edges into per-vertex runs, slot i = tids[i].
  std::vector<size_t> sources(edges.size());
  std::vector<size_t> counts(n + 1, 0);
  for (size_t j = 0; j < edges.size(); ++j) {
    sources[j] = SortedIndexOf(tids, edges[j].from);
    ++counts[sources[j] + 1];
  }
  for (size_t i = 0; i < n; ++i) counts[i + 1] += counts[i];
  tst.offsets_.assign(counts.begin(), counts.end() - 1);
  std::vector<size_t> fill = tst.offsets_;
  tst.edges_.resize(edges.size());
  tst.num_edges_ = edges.size();

  // W edges first (each queue member has exactly one, so "first" is
  // well-defined), then H edges in construction order.
  for (size_t j = 0; j < edges.size(); ++j) {
    const TwbgEdge& e = edges[j];
    if (!e.IsW()) continue;
    const size_t i = sources[j];
    TWBG_CHECK(fill[i] == tst.offsets_[i]);  // at most one W edge a vertex
    tst.edges_[fill[i]++] = e;
    tst.entries_[i].pr = e.rid;
  }
  for (size_t j = 0; j < edges.size(); ++j) {
    if (edges[j].IsH()) tst.edges_[fill[sources[j]]++] = edges[j];
  }

  tst.edge_targets_.resize(edges.size());
  for (size_t j = 0; j < edges.size(); ++j) {
    const TwbgEdge& e = tst.edges_[j];
    const size_t t = e.IsSentinel() ? n : SortedIndexOf(tids, e.to);
    tst.edge_targets_[j] = t < n ? t : kNoVertex;
  }
  for (size_t i = 0; i < n; ++i) {
    tst.entries_[i].waited = std::span<const TwbgEdge>(
        tst.edges_.data() + tst.offsets_[i], counts[i + 1] - counts[i]);
  }
  return tst;
}

size_t Tst::AddVertex(lock::TransactionId tid) {
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = entries_.size();
    entries_.emplace_back();
    slot_tids_.push_back(lock::kInvalidTransaction);
    offsets_.push_back(0);
  }
  slot_tids_[slot] = tid;
  joined_.emplace_back(tid, slot);
  return slot;
}

void Tst::RemoveVertex(size_t slot) {
  TWBG_DCHECK(entries_[slot].waited.empty());
  entries_[slot] = TstEntry{};
  slot_tids_[slot] = lock::kInvalidTransaction;
  offsets_[slot] = 0;
  free_slots_.push_back(slot);
  vertex_left_ = true;
}

void Tst::SetEdges(size_t slot, std::span<const TwbgEdge> edges,
                   std::span<const size_t> targets) {
  TstEntry& entry = entries_[slot];
  num_edges_ = num_edges_ - entry.waited.size() + edges.size();
  if (edges.size() <= entry.waited.size()) {
    // Shrinking or same size: overwrite the run in place.
    std::copy(edges.begin(), edges.end(), edges_.begin() + offsets_[slot]);
    std::copy(targets.begin(), targets.end(),
              edge_targets_.begin() + offsets_[slot]);
  } else {
    const TwbgEdge* before = edges_.data();
    offsets_[slot] = edges_.size();
    edges_.insert(edges_.end(), edges.begin(), edges.end());
    edge_targets_.insert(edge_targets_.end(), targets.begin(), targets.end());
    if (edges_.data() != before) RepointSpans();
  }
  entry.waited = std::span<const TwbgEdge>(edges_.data() + offsets_[slot],
                                           edges.size());
  entry.pr.reset();
  if (!edges.empty() && edges.front().IsW()) entry.pr = edges.front().rid;
}

void Tst::FinishPatch() {
  if (vertex_left_) {
    // Drop the vertices that left: their slot's tid changed or cleared.
    size_t kept = 0;
    for (size_t i = 0; i < tids_.size(); ++i) {
      if (slot_tids_[order_[i]] != tids_[i]) continue;
      tids_[kept] = tids_[i];
      order_[kept] = order_[i];
      ++kept;
    }
    tids_.resize(kept);
    order_.resize(kept);
    vertex_left_ = false;
  }
  if (!joined_.empty()) {
    // Merge the joined vertices (less any that already left) in from the
    // back, moving only the entries above the smallest of them.
    std::sort(joined_.begin(), joined_.end());
    joined_.erase(std::remove_if(joined_.begin(), joined_.end(),
                                 [&](const auto& vertex) {
                                   return slot_tids_[vertex.second] !=
                                          vertex.first;
                                 }),
                  joined_.end());
    size_t i = tids_.size();
    size_t j = joined_.size();
    tids_.resize(i + j);
    order_.resize(i + j);
    for (size_t out = i + j; j > 0;) {
      --out;
      if (i > 0 && tids_[i - 1] > joined_[j - 1].first) {
        --i;
        tids_[out] = tids_[i];
        order_[out] = order_[i];
      } else {
        --j;
        tids_[out] = joined_[j].first;
        order_[out] = joined_[j].second;
      }
    }
    joined_.clear();
  }

  if (edges_.size() > 2 * num_edges_ + kArenaSlack) {
    // Repack the live runs in root order, leaving room to grow.
    edge_scratch_.clear();
    target_scratch_.clear();
    edge_scratch_.reserve(2 * num_edges_ + kArenaSlack);
    target_scratch_.reserve(2 * num_edges_ + kArenaSlack);
    for (size_t slot : order_) {
      const size_t begin = offsets_[slot];
      const size_t end = begin + entries_[slot].waited.size();
      offsets_[slot] = edge_scratch_.size();
      edge_scratch_.insert(edge_scratch_.end(), edges_.begin() + begin,
                           edges_.begin() + end);
      target_scratch_.insert(target_scratch_.end(),
                             edge_targets_.begin() + begin,
                             edge_targets_.begin() + end);
    }
    edges_.swap(edge_scratch_);
    edge_targets_.swap(target_scratch_);
    RepointSpans();
  }

  for (TstEntry& entry : entries_) {
    entry.ancestor = 0;
    entry.current = 0;
  }
}

size_t SortedIndexOf(const std::vector<lock::TransactionId>& sorted,
                     lock::TransactionId tid) {
  if (sorted.empty()) return 0;
  // Lower bound by halving: `base` advances by `half` exactly when the
  // probe is below `tid`, computed arithmetically instead of branched on.
  const lock::TransactionId* base = sorted.data();
  size_t len = sorted.size();
  while (len > 1) {
    const size_t half = len / 2;
    base += static_cast<size_t>(base[half] < tid) * half;
    len -= half;
  }
  const size_t i = static_cast<size_t>(base - sorted.data()) +
                   static_cast<size_t>(*base < tid);
  return i < sorted.size() && sorted[i] == tid ? i : sorted.size();
}

size_t Tst::SlotOf(lock::TransactionId tid) const {
  const size_t i = SortedIndexOf(tids_, tid);
  return i < tids_.size() ? order_[i] : kNoVertex;
}

TstEntry& Tst::At(lock::TransactionId tid) {
  const size_t slot = SlotOf(tid);
  TWBG_CHECK(slot != kNoVertex);
  return entries_[slot];
}

const TstEntry& Tst::At(lock::TransactionId tid) const {
  const size_t slot = SlotOf(tid);
  TWBG_CHECK(slot != kNoVertex);
  return entries_[slot];
}

bool Tst::Contains(lock::TransactionId tid) const {
  return SlotOf(tid) != kNoVertex;
}

std::string Tst::ToString() const {
  std::string out;
  for (size_t i = 0; i < tids_.size(); ++i) {
    const TstEntry& entry = entries_[order_[i]];
    out += common::Format("T%u: pr=", tids_[i]);
    out += entry.pr.has_value() ? common::Format("R%u", *entry.pr) : "-";
    out += " waited=[";
    std::vector<std::string> parts;
    for (const TwbgEdge& e : entry.waited) {
      if (e.IsSentinel()) {
        parts.push_back(common::Format(
            "(%s, end)", std::string(lock::ToString(e.lock)).c_str()));
      } else {
        parts.push_back(common::Format(
            "(%s, T%u)", std::string(lock::ToString(e.lock)).c_str(), e.to));
      }
    }
    out += common::Join(parts, " ");
    out += "]\n";
  }
  return out;
}

}  // namespace twbg::core
