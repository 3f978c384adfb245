// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/parallel_detector.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace twbg::core {

namespace {

// ParallelWalkHost over a single LockManager: reads hit the one table;
// TDR-2 mutates the state directly (ResourceState self-stamps its
// version) and journals via NoteMutation at merge time.
class ManagerParallelHost final : public ParallelWalkHost {
 public:
  explicit ManagerParallelHost(lock::LockManager& manager)
      : manager_(manager) {}

  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return manager_.table().Find(rid);
  }
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    return manager_.Info(tid);
  }
  Status ApplyTdr2Direct(lock::ResourceId rid,
                         lock::TransactionId junction) override {
    lock::ResourceState* state =
        manager_.mutable_table().FindMutableDeferred(rid);
    if (state == nullptr) {
      return Status::NotFound(common::Format("R%u is not locked", rid));
    }
    return state->ApplyTdr2(junction);
  }
  void NoteTdr2Applied(lock::ResourceId rid) override {
    manager_.mutable_table().NoteMutation(rid);
  }

 private:
  lock::LockManager& manager_;
};

}  // namespace

Tst& ShardedTstBuilder::RefreshTst(
    const std::vector<const lock::LockTable*>& tables,
    common::ThreadPool* pool) {
  builders_.resize(tables.size());
  auto refresh = [&](size_t shard) { builders_[shard].Refresh(*tables[shard]); };
  if (pool != nullptr) {
    pool->ParallelFor(tables.size(), refresh);
  } else {
    for (size_t shard = 0; shard < tables.size(); ++shard) refresh(shard);
  }

  stats_ = {};
  for (const GraphBuilder& builder : builders_) {
    const GraphCacheStats& s = builder.stats();
    stats_.num_dirty_resources += s.num_dirty_resources;
    stats_.num_cached_resources += s.num_cached_resources;
    stats_.edges_rebuilt += s.edges_rebuilt;
    stats_.edges_reused += s.edges_reused;
    stats_.full_sweep = stats_.full_sweep || s.full_sweep;
  }

  // Vertex set: the union of the shards' ascending vertex sets.
  txn_scratch_.clear();
  for (const GraphBuilder& builder : builders_) {
    merge_scratch_.clear();
    std::set_union(txn_scratch_.begin(), txn_scratch_.end(),
                   builder.txns().begin(), builder.txns().end(),
                   std::back_inserter(merge_scratch_));
    txn_scratch_.swap(merge_scratch_);
  }

  // K-way merge of the per-shard edge lists by ascending rid (shards hold
  // disjoint rid sets, so this is the global rid order — the same
  // concatenation order a single-table build would use).
  edge_scratch_.clear();
  using ListIter =
      std::map<lock::ResourceId, std::vector<TwbgEdge>>::const_iterator;
  std::vector<std::pair<ListIter, ListIter>> fronts;
  fronts.reserve(builders_.size());
  for (const GraphBuilder& builder : builders_) {
    fronts.emplace_back(builder.edge_lists().begin(),
                        builder.edge_lists().end());
  }
  for (;;) {
    size_t best = fronts.size();
    for (size_t i = 0; i < fronts.size(); ++i) {
      if (fronts[i].first == fronts[i].second) continue;
      if (best == fronts.size() ||
          fronts[i].first->first < fronts[best].first->first) {
        best = i;
      }
    }
    if (best == fronts.size()) break;
    const std::vector<TwbgEdge>& edges = fronts[best].first->second;
    edge_scratch_.insert(edge_scratch_.end(), edges.begin(), edges.end());
    ++fronts[best].first;
  }

  // Per-shard mirrors are captured one shard at a time, so a transaction
  // granted on one shard and re-blocked on another between captures can
  // appear waiting in two mirrors at once — two W edges for one vertex,
  // which a consistent table can never produce (Axiom 1) and which
  // Tst::Assemble rejects.  Keep the first W edge in global rid order
  // (deterministic) and drop the rest: the walk runs on a self-consistent
  // TST, and any resolution decided on the stale wait is rejected by the
  // version-validated apply and retried next pass.
  if (builders_.size() > 1) {
    w_seen_.assign(txn_scratch_.size(), 0);
    size_t kept = 0;
    for (size_t j = 0; j < edge_scratch_.size(); ++j) {
      const TwbgEdge& e = edge_scratch_[j];
      if (e.IsW()) {
        const size_t v = SortedIndexOf(txn_scratch_, e.from);
        TWBG_DCHECK(v < w_seen_.size());  // a queue member is a vertex
        if (w_seen_[v] != 0) continue;
        w_seen_[v] = 1;
      }
      edge_scratch_[kept++] = e;
    }
    edge_scratch_.resize(kept);
  }

  // The union is sorted, duplicate-free and holds every edge source (a
  // source sits on a resource of its shard): the presorted assembly path.
  tst_.Assemble(edge_scratch_, txn_scratch_);
  return tst_;
}

ResolutionReport ParallelPeriodicDetector::RunPass(
    lock::LockManager& manager, CostTable& costs) {
  ManagerParallelHost walk_host(manager);
  LockManagerResolutionHost resolution_host(manager);
  return RunPassImpl({&manager.table()}, walk_host, resolution_host, costs);
}

ResolutionReport ParallelPeriodicDetector::RunPass(
    ShardedDetectionHost& host, CostTable& costs) {
  std::vector<const lock::LockTable*> tables;
  tables.reserve(host.num_shards());
  for (size_t shard = 0; shard < host.num_shards(); ++shard) {
    tables.push_back(&host.shard_table(shard));
  }
  return RunPassImpl(tables, host, host, costs);
}

ParallelPeriodicDetector::DetectOutcome ParallelPeriodicDetector::RunDetect(
    const std::vector<const lock::LockTable*>& tables,
    ParallelWalkHost& walk_host, CostTable& costs, obs::EventBus* bus,
    common::Stopwatch& clock) {
  const bool observing = obs::Enabled(bus);
  // The walk emits through whatever bus the caller hands us, which may be
  // a local recording bus rather than options_.event_bus.
  DetectorOptions walk_options = options_;
  walk_options.event_bus = bus;
  if (observing) {
    obs::Event start;
    start.kind = obs::EventKind::kPassStart;
    start.a = 1;  // periodic
    bus->Emit(start);
  }

  // Step 1: per-shard cache refresh + k-way merge.  A non-incremental
  // pass uses a throwaway builder (full rebuild every time) and reports
  // no cache statistics, matching the sequential from-scratch build.
  ShardedTstBuilder scratch_builder;
  ShardedTstBuilder& builder =
      options_.incremental_build ? builder_ : scratch_builder;
  Tst& tst = builder.RefreshTst(tables, pool_);
  DetectOutcome outcome;
  outcome.num_transactions = tst.size();
  outcome.num_edges = tst.NumEdges();
  outcome.incremental = options_.incremental_build;
  outcome.cache = builder.stats();
  outcome.step1_ns = observing ? clock.ElapsedNanos() : 0;
  if (observing) {
    obs::Event step1;
    step1.kind = obs::EventKind::kStep1;
    if (options_.incremental_build) {
      step1.a = builder.stats().num_dirty_resources;
      step1.b = builder.stats().num_cached_resources;
    }
    step1.value = static_cast<double>(outcome.step1_ns);
    bus->Emit(step1);
  }

  // Step 2: component-parallel walk.
  outcome.walk = RunWalkComponentParallel(
      tst, walk_host, costs, walk_options, pool_, &last_num_components_);
  if (observing) {
    obs::Event step2;
    step2.kind = obs::EventKind::kStep2;
    step2.a = outcome.walk.cycles;
    step2.b = outcome.walk.steps;
    step2.value =
        static_cast<double>(clock.ElapsedNanos() - outcome.step1_ns);
    bus->Emit(step2);
  }
  return outcome;
}

ResolutionReport ParallelPeriodicDetector::RunPassImpl(
    const std::vector<const lock::LockTable*>& tables,
    ParallelWalkHost& walk_host, ResolutionHost& resolution_host,
    CostTable& costs) {
  obs::EventBus* bus = options_.event_bus;
  const bool observing = obs::Enabled(bus);
  common::Stopwatch pass_clock;
  DetectOutcome detect =
      RunDetect(tables, walk_host, costs, bus, pass_clock);

  // Step 3: confirm aborts and grants.
  ResolutionReport report = ApplyResolution(std::move(detect.walk),
                                            resolution_host, costs, options_);
  report.num_transactions = detect.num_transactions;
  report.num_edges = detect.num_edges;
  if (detect.incremental) {
    report.num_dirty_resources = detect.cache.num_dirty_resources;
    report.num_cached_resources = detect.cache.num_cached_resources;
    report.edges_rebuilt = detect.cache.edges_rebuilt;
    report.edges_reused = detect.cache.edges_reused;
  }
  if (observing) {
    obs::Event end;
    end.kind = obs::EventKind::kPassEnd;
    end.a = report.cycles_detected;
    end.b = report.aborted.size();
    end.value = static_cast<double>(pass_clock.ElapsedNanos());
    bus->Emit(end);
  }
  return report;
}

}  // namespace twbg::core
