// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/tst.h"

#include <algorithm>
#include <functional>

#include "common/string_util.h"

namespace twbg::core {

Tst::Tst(const Tst& other)
    : tids_(other.tids_),
      entries_(other.entries_),
      edges_(other.edges_),
      edge_targets_(other.edge_targets_),
      offsets_(other.offsets_),
      fill_(other.fill_),
      edge_sources_(other.edge_sources_) {
  RepointSpans();
}

Tst& Tst::operator=(const Tst& other) {
  if (this == &other) return *this;
  tids_ = other.tids_;
  entries_ = other.entries_;
  edges_ = other.edges_;
  edge_targets_ = other.edge_targets_;
  offsets_ = other.offsets_;
  fill_ = other.fill_;
  edge_sources_ = other.edge_sources_;
  RepointSpans();
  return *this;
}

void Tst::RepointSpans() {
  // Groups are laid out contiguously in tids_ order and cover all of
  // edges_, so the copied span sizes determine the offsets.
  size_t offset = 0;
  for (TstEntry& entry : entries_) {
    entry.waited = std::span<const TwbgEdge>(edges_.data() + offset,
                                             entry.waited.size());
    offset += entry.waited.size();
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
  tst.Assemble(edges, txns);
  return tst;
}

void Tst::Assemble(const std::vector<TwbgEdge>& edges,
                   const std::vector<lock::TransactionId>& txns) {
  // Presorted path: a strictly ascending vertex set is the id column as
  // is, and locating every edge's source once both proves it covers the
  // sources and gives the grouping below its indices.
  tids_.assign(txns.begin(), txns.end());
  edge_sources_.resize(edges.size());
  bool presorted = std::adjacent_find(tids_.begin(), tids_.end(),
                                      std::greater_equal<>()) == tids_.end();
  for (size_t j = 0; presorted && j < edges.size(); ++j) {
    edge_sources_[j] = IndexOf(edges[j].from);
    presorted = edge_sources_[j] < tids_.size();
  }
  if (!presorted) {
    // Any other input: add the sources, sort, dedupe, locate again.
    for (const TwbgEdge& e : edges) tids_.push_back(e.from);
    std::sort(tids_.begin(), tids_.end());
    tids_.erase(std::unique(tids_.begin(), tids_.end()), tids_.end());
    for (size_t j = 0; j < edges.size(); ++j) {
      edge_sources_[j] = IndexOf(edges[j].from);
    }
  }

  const size_t n = tids_.size();
  entries_.assign(n, TstEntry{});

  // Counting sort of the edges into per-vertex groups.
  offsets_.assign(n + 1, 0);
  for (size_t i : edge_sources_) ++offsets_[i + 1];
  for (size_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];
  edges_.resize(edges.size());
  fill_.assign(offsets_.begin(), offsets_.end() - 1);

  // W edges first (each queue member has exactly one, so "first" is
  // well-defined), then H edges in construction order.
  for (size_t j = 0; j < edges.size(); ++j) {
    const TwbgEdge& e = edges[j];
    if (!e.IsW()) continue;
    const size_t i = edge_sources_[j];
    TWBG_CHECK(fill_[i] == offsets_[i]);  // at most one W edge per vertex
    edges_[fill_[i]++] = e;
    entries_[i].pr = e.rid;
  }
  for (size_t j = 0; j < edges.size(); ++j) {
    if (edges[j].IsH()) edges_[fill_[edge_sources_[j]]++] = edges[j];
  }

  for (size_t i = 0; i < n; ++i) {
    entries_[i].waited = std::span<const TwbgEdge>(
        edges_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

  edge_targets_.resize(edges_.size());
  for (size_t j = 0; j < edges_.size(); ++j) {
    edge_targets_[j] =
        edges_[j].IsSentinel() ? kNoVertex : IndexOf(edges_[j].to);
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

size_t Tst::IndexOf(lock::TransactionId tid) const {
  return SortedIndexOf(tids_, tid);
}

TstEntry& Tst::At(lock::TransactionId tid) {
  const size_t i = IndexOf(tid);
  TWBG_CHECK(i < entries_.size());
  return entries_[i];
}

const TstEntry& Tst::At(lock::TransactionId tid) const {
  const size_t i = IndexOf(tid);
  TWBG_CHECK(i < entries_.size());
  return entries_[i];
}

bool Tst::Contains(lock::TransactionId tid) const {
  return IndexOf(tid) < tids_.size();
}

std::string Tst::ToString() const {
  std::string out;
  for (size_t i = 0; i < tids_.size(); ++i) {
    const TstEntry& entry = entries_[i];
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
