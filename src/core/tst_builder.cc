// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/tst_builder.h"

#include <algorithm>
#include <cstdint>

namespace twbg::core {

Tst& TstBuilder::RefreshTst(const lock::LockTable& table) {
  one_table_.assign(1, &table);
  return RefreshTst(one_table_);
}

template <typename Item>
void TstBuilder::GroupBySource(const std::vector<Item>& items,
                               std::vector<Item>& grouped,
                               std::vector<size_t>& begin) {
  // Counting sort by group, then each group's few items by rid (insertion
  // sort: stable, so a resource's edges keep their ECR order).
  begin.assign(touched_.size() + 1, 0);
  for (const Item& item : items) ++begin[item.group + 1];
  for (size_t g = 0; g < touched_.size(); ++g) begin[g + 1] += begin[g];
  grouped.resize(items.size());
  fill_.assign(begin.begin(), begin.end() - 1);
  for (const Item& item : items) grouped[fill_[item.group]++] = item;
  for (size_t g = 0; g < touched_.size(); ++g) {
    for (size_t i = begin[g] + 1; i < begin[g + 1]; ++i) {
      for (size_t j = i;
           j > begin[g] && grouped[j].rid() < grouped[j - 1].rid(); --j) {
        std::swap(grouped[j], grouped[j - 1]);
      }
    }
  }
}

Tst& TstBuilder::RefreshTst(
    const std::vector<const lock::LockTable*>& tables) {
  if (builders_.size() != tables.size()) {
    builders_.clear();
    vertices_.clear();
    aside_.clear();
    tst_ = Tst();
    builders_.resize(tables.size());
  }
  for (size_t i = 0; i < tables.size(); ++i) builders_[i].Refresh(*tables[i]);

  stats_ = {};
  for (const GraphBuilder& builder : builders_) {
    const GraphCacheStats& s = builder.stats();
    stats_.num_dirty_resources += s.num_dirty_resources;
    stats_.num_cached_resources += s.num_cached_resources;
    stats_.edges_rebuilt += s.edges_rebuilt;
    stats_.edges_reused += s.edges_reused;
    stats_.full_sweep = stats_.full_sweep || s.full_sweep;
  }

  // Joins first, so every new edge's endpoints have slots.
  for (const GraphBuilder& builder : builders_) {
    for (lock::TransactionId tid : builder.joined()) {
      auto [vertex, inserted] = vertices_.TryEmplace(tid);
      if (inserted) vertex->slot = tst_.AddVertex(tid);
      ++vertex->tables;
    }
  }

  // The vertices to patch: for each changed resource, the sources of
  // the edges between its old and new lists' common prefix and common
  // suffix.  Any other source has the same edges on the resource before
  // and after (a queue that grew or shrank at one end changes one or two
  // members' edges) and keeps its list.  A patched vertex gets all its new
  // edges on the resource and replaces all its old ones.
  new_edges_.clear();
  replaced_.clear();
  touched_.clear();
  touch_group_.resize(tst_.num_slots(), 0);
  for (const GraphBuilder& builder : builders_) {
    for (const GraphBuilder::ResourceChange& change : builder.changes()) {
      const TwbgEdge* old_first = builder.retired_edges().data() +
                                  change.old_begin;
      const TwbgEdge* old_last = builder.retired_edges().data() +
                                 change.old_end;
      const TwbgEdge* new_first = builder.fresh_edges().data() +
                                  change.new_begin;
      const TwbgEdge* new_last = builder.fresh_edges().data() +
                                 change.new_end;
      const auto [old_mid, new_mid] =
          std::mismatch(old_first, old_last, new_first, new_last);
      const size_t common = static_cast<size_t>(
          std::min(old_last - old_mid, new_last - new_mid));
      size_t suffix = 0;
      while (suffix < common &&
             old_last[-1 - static_cast<ptrdiff_t>(suffix)] ==
                 new_last[-1 - static_cast<ptrdiff_t>(suffix)]) {
        ++suffix;
      }
      sources_.clear();
      for (const auto& [first, last] :
           {std::pair(old_mid, old_last - suffix),
            std::pair(new_mid, new_last - suffix)}) {
        for (const TwbgEdge* e = first; e != last; ++e) {
          if (std::find(sources_.begin(), sources_.end(), e->from) ==
              sources_.end()) {
            sources_.push_back(e->from);
          }
        }
      }
      if (sources_.empty()) continue;
      groups_.clear();
      for (lock::TransactionId tid : sources_) {
        const size_t slot = SlotOf(tid);
        uint32_t& group = touch_group_[slot];
        if (group == 0) {
          touched_.push_back(slot);
          group = static_cast<uint32_t>(touched_.size());
        }
        groups_.push_back(group - 1);
        replaced_.push_back(ReplacedRid{group - 1, change.rid});
      }
      for (const TwbgEdge* e = new_first; e != new_last; ++e) {
        const size_t k = static_cast<size_t>(
            std::find(sources_.begin(), sources_.end(), e->from) -
            sources_.begin());
        if (k < sources_.size()) {
          new_edges_.push_back(GroupedEdge{groups_[k], *e});
        }
      }
    }
  }
  GroupBySource(new_edges_, new_grouped_, new_begin_);
  GroupBySource(replaced_, replaced_grouped_, replaced_begin_);
  for (size_t g = 0; g < touched_.size(); ++g) {
    Patch(touched_[g], new_begin_[g], new_begin_[g + 1], replaced_begin_[g],
          replaced_begin_[g + 1]);
    touch_group_[touched_[g]] = 0;
  }

  // Leaves last: a vertex leaves the graph only after its edges have.
  for (const GraphBuilder& builder : builders_) {
    for (lock::TransactionId tid : builder.left()) {
      Vertex* vertex = vertices_.Find(tid);
      if (--vertex->tables != 0) continue;
      tst_.RemoveVertex(vertex->slot);
      vertices_.Erase(tid);
    }
  }
  tst_.FinishPatch();
  return tst_;
}

void TstBuilder::Patch(size_t slot, size_t first, size_t last,
                       size_t replaced_first, size_t replaced_last) {
  const std::span<const TwbgEdge> old = tst_.EntryAt(slot).waited;
  const std::span<const size_t> old_targets = tst_.TargetsOf(slot);
  const auto replaced = [&](lock::ResourceId rid) {
    for (size_t r = replaced_first; r < replaced_last; ++r) {
      if (replaced_grouped_[r].resource == rid) return true;
    }
    return false;
  };

  // W candidates: the kept front edge, the ones waiting aside, the new
  // ones.  The lowest rid goes first in the list, the rest aside.
  w_scratch_.clear();
  size_t h = 0;  // first old H edge
  if (!old.empty() && old.front().IsW()) {
    if (!replaced(old.front().rid)) {
      w_scratch_.push_back(AsideEdge{slot, old.front(), old_targets.front()});
    }
    h = 1;
  }
  if (!aside_.empty()) {
    size_t kept = 0;
    for (const AsideEdge& aside : aside_) {
      if (aside.slot != slot) {
        aside_[kept++] = aside;
      } else if (!replaced(aside.edge.rid)) {
        w_scratch_.push_back(aside);
      }
    }
    aside_.resize(kept);
  }
  const auto target_of = [&](const TwbgEdge& e) {
    return e.IsSentinel() ? Tst::kNoVertex : SlotOf(e.to);
  };
  for (size_t k = first; k < last; ++k) {
    const TwbgEdge& e = new_grouped_[k].edge;
    if (e.IsW()) w_scratch_.push_back(AsideEdge{slot, e, target_of(e)});
  }

  list_scratch_.clear();
  target_scratch_.clear();
  if (!w_scratch_.empty()) {
    const auto front = std::min_element(
        w_scratch_.begin(), w_scratch_.end(),
        [](const AsideEdge& a, const AsideEdge& b) {
          return a.edge.rid < b.edge.rid;
        });
    list_scratch_.push_back(front->edge);
    target_scratch_.push_back(front->target);
    for (auto it = w_scratch_.begin(); it != w_scratch_.end(); ++it) {
      if (it != front) aside_.push_back(*it);
    }
  }

  // H edges: the kept old ones and the new ones, merged by rid (a
  // replaced resource's edges are all new, any other's all kept).
  size_t k = first;
  const auto push_new_below = [&](uint64_t bound) {
    for (; k < last && new_grouped_[k].edge.rid < bound; ++k) {
      const TwbgEdge& e = new_grouped_[k].edge;
      if (e.IsW()) continue;
      list_scratch_.push_back(e);
      target_scratch_.push_back(target_of(e));
    }
  };
  for (; h < old.size(); ++h) {
    if (replaced(old[h].rid)) continue;
    push_new_below(old[h].rid);
    list_scratch_.push_back(old[h]);
    target_scratch_.push_back(old_targets[h]);
  }
  push_new_below(UINT64_MAX);
  tst_.SetEdges(slot, list_scratch_, target_scratch_);
}

}  // namespace twbg::core
