// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/detection_engine.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "core/post_mortem.h"
#include "core/victim.h"

namespace twbg::core {

namespace {

// Resolves the cycle closed by the edge v -> w (w has a non-zero ancestor,
// i.e. lies on the active walk path).  v and w are slots of `tst`.
// Implements the paper's victim-selection: backtrack from v to w
// recovering the cycle, enumerate TDR candidates, apply the cheapest,
// clear the backtracked ancestors (except w's).
//
// Returns false without mutating anything when the recovered cycle is not
// a cycle of any consistent TWBG.  On a consistent table that cannot
// happen (Lemmata 3 and 4.1); it happens only when the walk runs over an
// epoch snapshot whose shards were captured at slightly different times
// (see core/tst_builder.h).  The caller skips the closing edge
// — whatever real deadlock hides behind the skew is re-derived from a
// fresh capture next pass, mirroring how the pauseless apply phase drops
// stale decisions.
bool HandleCycle(size_t v, size_t w, Tst& tst, WalkHost& host,
                 CostTable& costs, const DetectorOptions& options,
                 WalkOutcome& outcome) {
  // Recover the cycle vertices in walk order w .. v.
  std::vector<size_t> reversed;
  size_t u = v;
  while (u != w) {
    reversed.push_back(u);
    const int64_t up = tst.EntryAt(u).ancestor;
    // w lies on the active path, so we must reach it before running off
    // the root of the walk.
    TWBG_CHECK(up > 0);
    u = static_cast<size_t>(up - 1);
  }
  reversed.push_back(w);
  std::vector<size_t> cycle_index(reversed.rbegin(), reversed.rend());
  std::vector<lock::TransactionId> cycle;
  cycle.reserve(cycle_index.size());
  for (size_t index : cycle_index) cycle.push_back(tst.TidAt(index));

  // Each on-path vertex's `current` points at the edge the walk took from
  // it; for v that is the closing edge v -> w.
  std::vector<CycleEdgeView> views;
  views.reserve(cycle.size());
  for (size_t i = 0; i < cycle.size(); ++i) {
    const TstEntry& entry = tst.EntryAt(cycle_index[i]);
    if (entry.CurrentIsNil()) {
      // A vertex cleared by an earlier resolution (the Lemma 4.1 shield)
      // reappeared on a cycle — capture skew; drop the cycle.
      return false;
    }
    views.push_back(CycleEdgeView{cycle[i], entry.CurrentEdge()});
    TWBG_CHECK(views.back().out.to == cycle[(i + 1) % cycle.size()]);
  }

  // A kResolution span brackets everything from candidate enumeration to
  // the forensic post-mortem, parented under the open pass span.
  obs::SpanTracer* tracer = options.span_tracer;
  const bool tracing = obs::Tracing(tracer);
  const uint64_t res_span =
      tracing ? tracer->Open(obs::SpanKind::kResolution, 0,
                             tracer->current_pass())
              : 0;

  std::vector<VictimCandidate> candidates =
      EnumerateCandidates(views, host, costs, options);
  if (candidates.empty()) {
    // Lemma 3 guarantees >= 2 junctions on any cycle of a consistent
    // TWBG; an empty enumeration means capture skew — drop the cycle.
    if (tracing) tracer->Close(res_span, cycle.size(), false, "skew-drop");
    return false;
  }
  const size_t chosen = SelectVictim(candidates);
  const VictimCandidate& victim = candidates[chosen];

  // Stamp the evidence before the resolution mutates any of it: every
  // distinct resource the cycle's edges traverse, with its current
  // version.  A pauseless apply phase re-checks these against the live
  // shards — any mismatch means the cycle was derived from state that has
  // since moved, and the decision is dropped as stale.
  std::vector<std::pair<lock::ResourceId, uint64_t>> evidence;
  if (options.capture_evidence) {
    for (const CycleEdgeView& view : views) {
      const lock::ResourceId rid = view.out.rid;
      if (rid == 0) continue;
      bool seen = false;
      for (const auto& entry : evidence) seen = seen || entry.first == rid;
      if (seen) continue;
      const lock::ResourceState* state = host.FindResource(rid);
      TWBG_CHECK(state != nullptr);  // the edge was built from this state
      evidence.emplace_back(rid, state->version());
    }
  }
  uint64_t applied_version = 0;

  if (victim.kind == VictimKind::kAbort) {
    tst.At(victim.junction).SetCurrentNil();
    // A victim's nil current shields it from every later cycle, so it can
    // never be selected twice.
    TWBG_DCHECK(std::find(outcome.abortion_list.begin(),
                          outcome.abortion_list.end(),
                          victim.junction) == outcome.abortion_list.end());
    outcome.abortion_list.push_back(victim.junction);
  } else {
    // TDR-2: reposition the live queue now; grants happen at Step 3.
    Status status = host.ApplyTdr2(victim.resource, victim.junction);
    TWBG_CHECK(status.ok());
    if (options.capture_evidence) {
      const lock::ResourceState* state = host.FindResource(victim.resource);
      TWBG_CHECK(state != nullptr);
      applied_version = state->version();
    }
    for (lock::TransactionId tid : victim.st) {
      costs.Bump(tid, options.st_cost_multiplier, options.st_cost_increment);
    }
    if (std::find(outcome.change_list.begin(), outcome.change_list.end(),
                  victim.resource) == outcome.change_list.end()) {
      outcome.change_list.push_back(victim.resource);
    }
    // Lemma 4.1: AV members cannot be in any deadlock cycle any more.
    for (lock::TransactionId tid : victim.av) {
      if (tst.Contains(tid)) tst.At(tid).SetCurrentNil();
    }
  }

  if (tracing) {
    tracer->SetContext(
        res_span, victim.junction,
        victim.kind == VictimKind::kReposition ? victim.resource : 0);
  }
  const bool observing = obs::Enabled(options.event_bus);
  if (observing) {
    obs::Event event;
    event.kind = obs::EventKind::kCycleResolved;
    event.tid = victim.junction;
    event.rid = victim.kind == VictimKind::kReposition ? victim.resource : 0;
    event.a = cycle.size();
    event.b = victim.kind == VictimKind::kReposition;
    event.value = victim.cost;
    options.event_bus->Emit(event);
  }

  if (observing || options.collect_post_mortems) {
    // Assemble the forensic record while the evidence is live: cycle
    // members are still blocked (TDR-1 victims release only at Step 3)
    // and the TDR-2 repositioning, if any, is already visible.
    const uint64_t now =
        options.event_bus != nullptr ? options.event_bus->time() : 0;
    CyclePostMortem pm =
        BuildPostMortem(views, candidates, chosen, host, host, now);
    if (observing) {
      obs::Event event;
      event.kind = obs::EventKind::kCyclePostMortem;
      event.tid = pm.junction;
      event.rid = pm.resource;
      event.a = pm.members.size();
      event.b = pm.rule == VictimKind::kReposition;
      event.value = pm.cost;
      // The resolution span's id: the join key from this event's forensic
      // wait chain to the timeline slice that resolved the cycle.
      event.span = res_span;
      event.detail = pm.Summary();
      options.event_bus->Emit(std::move(event));
    }
    outcome.post_mortems.push_back(std::move(pm));
  }
  if (tracing) {
    tracer->Close(res_span, cycle.size(),
                  victim.kind == VictimKind::kReposition,
                  victim.kind == VictimKind::kReposition ? "TDR-2" : "TDR-1");
  }

  // Clear the backtracked ancestors; w stays marked (walk resumes there).
  for (size_t index : cycle_index) {
    if (index != w) tst.EntryAt(index).ancestor = 0;
  }

  VictimDecision decision;
  decision.cycle = std::move(cycle);
  decision.candidates = std::move(candidates);
  decision.chosen = chosen;
  decision.evidence = std::move(evidence);
  decision.applied_version = applied_version;
  outcome.decisions.push_back(std::move(decision));
  ++outcome.cycles;
  return true;
}

}  // namespace

WalkOutcome RunWalk(Tst& tst, const std::vector<lock::TransactionId>& roots,
                    WalkHost& host, CostTable& costs,
                    const DetectorOptions& options) {
  WalkOutcome outcome;
  // The periodic pass passes Transactions() verbatim, so the cursor makes
  // every root lookup O(1); out-of-order roots fall back to binary search.
  const std::vector<lock::TransactionId>& order = tst.Transactions();
  size_t cursor = 0;
  for (lock::TransactionId root : roots) {
    if (cursor >= order.size() || order[cursor] != root) {
      cursor = SortedIndexOf(order, root);
      if (cursor == order.size()) continue;
    }
    const size_t r = tst.RootSlot(cursor++);
    tst.EntryAt(r).ancestor = TstEntry::kRoot;
    int64_t v = static_cast<int64_t>(r);
    while (v != TstEntry::kRoot) {
      ++outcome.steps;
      TstEntry& entry = tst.EntryAt(static_cast<size_t>(v));
      if (entry.CurrentIsNil()) {
        // Dead end: everything reachable is resolved; backtrack.
        const int64_t up = entry.ancestor;
        entry.ancestor = 0;
        v = up == TstEntry::kRoot ? TstEntry::kRoot : up - 1;
        continue;
      }
      const TwbgEdge& edge = entry.CurrentEdge();
      if (edge.IsSentinel()) {
        ++entry.current;  // skip the end-of-queue sentinel
        continue;
      }
      const size_t t =
          tst.EdgeTargetIndex(static_cast<size_t>(v), entry.current);
      TWBG_CHECK(t < tst.num_slots());
      TstEntry& next = tst.EntryAt(t);
      if (next.CurrentIsNil()) {
        ++entry.current;  // skip: finished or victim vertex
        continue;
      }
      if (next.ancestor != 0) {
        // Closing edge: edge.to lies on the active path — a cycle.
        if (HandleCycle(static_cast<size_t>(v), t, tst, host, costs, options,
                        outcome)) {
          v = static_cast<int64_t>(t);  // resume at the re-entered vertex
        } else {
          ++entry.current;  // skew-inconsistent cycle dropped: skip edge
        }
      } else {
        next.ancestor = v + 1;
        v = static_cast<int64_t>(t);
      }
    }
  }
  return outcome;
}

WalkOutcome RunWalk(Tst& tst, const std::vector<lock::TransactionId>& roots,
                    lock::LockManager& manager, CostTable& costs,
                    const DetectorOptions& options) {
  LockManagerWalkHost host(manager);
  return RunWalk(tst, roots, host, costs, options);
}

ResolutionReport ApplyResolution(WalkOutcome walk, ResolutionHost& host,
                                 CostTable& costs,
                                 const DetectorOptions& options) {
  ResolutionReport report;
  report.cycles_detected = walk.cycles;
  report.decisions = std::move(walk.decisions);
  report.post_mortems = std::move(walk.post_mortems);
  report.steps = walk.steps;
  report.repositioned = walk.change_list;

  std::vector<lock::TransactionId> order = walk.abortion_list;
  switch (options.abort_order) {
    case AbortOrder::kInsertion:
      break;
    case AbortOrder::kReverseInsertion:
      std::reverse(order.begin(), order.end());
      break;
    case AbortOrder::kCostDescending:
      std::stable_sort(order.begin(), order.end(),
                       [&](lock::TransactionId a, lock::TransactionId b) {
                         return costs.Get(a) > costs.Get(b);
                       });
      break;
    case AbortOrder::kCostAscending:
      std::stable_sort(order.begin(), order.end(),
                       [&](lock::TransactionId a, lock::TransactionId b) {
                         return costs.Get(a) < costs.Get(b);
                       });
      break;
  }

  std::set<lock::TransactionId> granted_set;
  for (lock::TransactionId tid : order) {
    if (granted_set.count(tid) != 0) {
      // An earlier abort already unblocked this victim — spare it.
      report.spared.push_back(tid);
      continue;
    }
    std::vector<lock::TransactionId> granted = host.ReleaseAll(tid);
    report.aborted.push_back(tid);
    costs.Erase(tid);
    for (lock::TransactionId g : granted) {
      granted_set.insert(g);
      report.granted.push_back(g);
    }
  }
  for (lock::ResourceId rid : walk.change_list) {
    for (lock::TransactionId g : host.Reschedule(rid)) {
      granted_set.insert(g);
      report.granted.push_back(g);
    }
  }
  return report;
}

ResolutionReport ApplyResolution(WalkOutcome walk, lock::LockManager& manager,
                                 CostTable& costs,
                                 const DetectorOptions& options) {
  LockManagerResolutionHost host(manager);
  return ApplyResolution(std::move(walk), host, costs, options);
}

std::string ResolutionReport::ToString() const {
  std::string out = common::Format(
      "cycles=%zu aborted=%zu spared=%zu granted=%zu repositioned=%zu "
      "steps=%zu (n=%zu, e=%zu)\n",
      cycles_detected, aborted.size(), spared.size(), granted.size(),
      repositioned.size(), steps, num_transactions, num_edges);
  if (num_dirty_resources + num_cached_resources > 0) {
    out += common::Format(
        "  graph-cache: dirty=%zu cached=%zu edges-rebuilt=%zu "
        "edges-reused=%zu\n",
        num_dirty_resources, num_cached_resources, edges_rebuilt,
        edges_reused);
  }
  // Only pauseless passes ever reject; omitting the line when 0 keeps
  // quiesced reports byte-identical across engines.
  if (rejected > 0) {
    out += common::Format("  rejected: %zu stale (retried next pass)\n",
                          rejected);
  }
  for (const VictimDecision& d : decisions) {
    out += "  ";
    out += d.ToString();
    out += "\n";
  }
  auto list = [&out](const char* name,
                     const std::vector<lock::TransactionId>& tids) {
    out += common::Format("  %s: {", name);
    std::vector<std::string> parts;
    for (lock::TransactionId tid : tids) {
      parts.push_back(common::Format("T%u", tid));
    }
    out += common::Join(parts, ", ");
    out += "}\n";
  };
  list("abortion-list", aborted);
  list("spared", spared);
  list("grant-list", granted);
  return out;
}

}  // namespace twbg::core
