// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/parallel_detector.h"

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

  // Step 1: per-shard cache refresh + TST patch.  A non-incremental pass
  // uses a throwaway builder (full rebuild every time) and reports no
  // cache statistics, matching the sequential from-scratch build.
  TstBuilder scratch_builder;
  TstBuilder& builder =
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

  // Step 2: component-parallel walk (the plain walk without a pool).
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
