// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/parallel_engine.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "obs/sinks.h"

namespace twbg::core {

namespace {

size_t Find(std::vector<size_t>& parent, size_t v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];  // path halving
    v = parent[v];
  }
  return v;
}

void Unite(std::vector<size_t>& parent, size_t a, size_t b) {
  a = Find(parent, a);
  b = Find(parent, b);
  if (a != b) parent[std::max(a, b)] = std::min(a, b);
}

// WalkHost a walk over a ParallelWalkHost runs against: reads go straight
// to the parallel host; the TDR-2 mutation is applied directly, journaled
// at once when `journal` is set (the direct walk) and otherwise by the
// merge, and its kUprReposition emitted on `bus` (a component's local bus
// on the pooled walk).
class ForwardingWalkHost final : public WalkHost {
 public:
  ForwardingWalkHost(ParallelWalkHost& parent, obs::EventBus* bus,
                     bool journal)
      : parent_(parent), bus_(bus), journal_(journal) {}

  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return parent_.FindResource(rid);
  }
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    return parent_.FindWaitInfo(tid);
  }
  Status ApplyTdr2(lock::ResourceId rid,
                   lock::TransactionId junction) override {
    Status status = parent_.ApplyTdr2Direct(rid, junction);
    if (!status.ok()) return status;
    if (journal_) parent_.NoteTdr2Applied(rid);
    if (obs::Enabled(bus_)) {
      // Same shape LockManager::ApplyTdr2 emits on the sequential pass.
      obs::Event event;
      event.kind = obs::EventKind::kUprReposition;
      event.tid = junction;
      event.rid = rid;
      bus_->Emit(event);
    }
    return status;
  }

 private:
  ParallelWalkHost& parent_;
  obs::EventBus* bus_;
  bool journal_;
};

// Everything one component's walk produced, recorded privately so the
// merge phase can reassemble the exact sequential stream.
struct ComponentRun {
  WalkOutcome outcome;
  CostTable costs;  // private copy; in-component entries merged back
  obs::EventBus bus;
  obs::CollectorSink sink;
  // [begin, end) ranges into sink.events() per decision.
  std::vector<std::pair<size_t, size_t>> decision_events;
};

}  // namespace

TstPartition PartitionTst(const Tst& tst) {
  const size_t slots = tst.num_slots();
  TstPartition partition;
  std::vector<size_t> parent(slots);
  for (size_t v = 0; v < slots; ++v) parent[v] = v;
  for (size_t i = 0; i < tst.size(); ++i) {
    const size_t v = tst.RootSlot(i);
    const size_t degree = tst.EntryAt(v).waited.size();
    for (size_t offset = 0; offset < degree; ++offset) {
      const size_t t = tst.EdgeTargetIndex(v, offset);
      if (t == Tst::kNoVertex) continue;  // sentinel / unknown
      Unite(parent, v, t);
    }
  }
  // Ascending tid order: a component's index is taken by its smallest
  // tid and recorded at its union-find root for the later members.
  partition.component_of.assign(slots, Tst::kNoVertex);
  for (size_t i = 0; i < tst.size(); ++i) {
    const size_t v = tst.RootSlot(i);
    size_t& component = partition.component_of[Find(parent, v)];
    if (component == Tst::kNoVertex) {
      component = partition.components.size();
      partition.components.emplace_back();
    }
    partition.component_of[v] = component;
    partition.components[component].push_back(v);
  }
  return partition;
}

WalkOutcome RunWalkComponentParallel(Tst& tst, ParallelWalkHost& host,
                                     CostTable& costs,
                                     const DetectorOptions& options,
                                     common::ThreadPool* pool,
                                     size_t* num_components) {
  if (pool == nullptr) {
    if (num_components != nullptr) *num_components = 0;
    ForwardingWalkHost direct(host, options.event_bus, /*journal=*/true);
    return RunWalk(tst, tst.Transactions(), direct, costs, options);
  }
  const TstPartition partition = PartitionTst(tst);
  const size_t n_comp = partition.components.size();
  if (num_components != nullptr) *num_components = n_comp;

  const bool observing = obs::Enabled(options.event_bus);
  std::vector<ComponentRun> runs(n_comp);

  auto run_component = [&](size_t c) {
    ComponentRun& run = runs[c];
    DetectorOptions local = options;
    if (options.event_bus != nullptr) {
      // Mirror the sequential pass exactly: the local bus is active iff
      // the real one is (post-mortem assembly keys on that), and carries
      // the real logical time (nothing advances it mid-pass).
      run.bus.set_time(options.event_bus->time());
      if (observing) run.bus.Subscribe(&run.sink);
      local.event_bus = &run.bus;
    }
    run.costs = costs;
    ForwardingWalkHost component_host(host, observing ? &run.bus : nullptr,
                                      /*journal=*/false);
    std::vector<lock::TransactionId> roots;
    roots.reserve(partition.components[c].size());
    for (size_t slot : partition.components[c]) {
      roots.push_back(tst.TidAt(slot));
    }
    run.outcome = RunWalk(tst, roots, component_host, run.costs, local);
    // Segment the recorded stream into one event range per decision:
    // [kUprReposition?] kCycleResolved [kCyclePostMortem?].
    const auto& events = run.sink.events();
    size_t start = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind != obs::EventKind::kCycleResolved) continue;
      size_t end = i + 1;
      if (end < events.size() &&
          events[end].kind == obs::EventKind::kCyclePostMortem) {
        ++end;
      }
      run.decision_events.emplace_back(start, end);
      start = end;
      i = end - 1;
    }
    TWBG_DCHECK(!observing ||
                run.decision_events.size() == run.outcome.decisions.size());
  };

  pool->ParallelFor(n_comp, run_component);

  // Serial merge: interleave per-component decision streams by ascending
  // root id — the order the sequential outer loop would have made them.
  WalkOutcome merged;
  std::vector<size_t> pos(n_comp, 0);
  for (;;) {
    size_t best = n_comp;
    for (size_t c = 0; c < n_comp; ++c) {
      if (pos[c] >= runs[c].outcome.decisions.size()) continue;
      if (best == n_comp || runs[c].outcome.decision_roots[pos[c]] <
                                runs[best].outcome.decision_roots[pos[best]]) {
        best = c;
      }
    }
    if (best == n_comp) break;
    ComponentRun& run = runs[best];
    const size_t p = pos[best]++;
    VictimDecision decision = std::move(run.outcome.decisions[p]);
    const VictimCandidate& victim = decision.candidates[decision.chosen];
    if (victim.kind == VictimKind::kAbort) {
      merged.abortion_list.push_back(victim.junction);
    } else {
      host.NoteTdr2Applied(victim.resource);
      if (std::find(merged.change_list.begin(), merged.change_list.end(),
                    victim.resource) == merged.change_list.end()) {
        merged.change_list.push_back(victim.resource);
      }
    }
    if (observing && p < run.decision_events.size()) {
      const auto [begin, end] = run.decision_events[p];
      for (size_t i = begin; i < end; ++i) {
        // The real bus re-stamps seq/time on delivery.
        options.event_bus->Emit(run.sink.events()[i]);
      }
    }
    if (p < run.outcome.post_mortems.size()) {
      merged.post_mortems.push_back(
          std::move(run.outcome.post_mortems[p]));
    }
    merged.decision_roots.push_back(run.outcome.decision_roots[p]);
    merged.decisions.push_back(std::move(decision));
    ++merged.cycles;
  }

  // Fold per-component step counts and cost mutations back.  Cost reads
  // and writes during a walk are confined to that component's members
  // (see header), so copying the members' entries back is exact.
  for (size_t c = 0; c < n_comp; ++c) {
    merged.steps += runs[c].outcome.steps;
    for (size_t slot : partition.components[c]) {
      const lock::TransactionId tid = tst.TidAt(slot);
      const double* cost = runs[c].costs.Find(tid);
      if (cost != nullptr) costs.Set(tid, *cost);
    }
  }
  return merged;
}

}  // namespace twbg::core
