// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/periodic_detector.h"

#include <optional>
#include <utility>

#include "core/tst.h"

namespace twbg::core {

ResolutionReport PeriodicDetector::RunPass(lock::LockManager& manager,
                                           CostTable& costs) {
  LockManagerWalkHost walk_host(manager);
  LockManagerResolutionHost resolution_host(manager);
  tables_.assign(1, &manager.table());
  return RunPassImpl(tables_, walk_host, resolution_host, costs);
}

ResolutionReport PeriodicDetector::RunPass(ShardedDetectionHost& host,
                                           CostTable& costs) {
  tables_.clear();
  for (size_t shard = 0; shard < host.num_shards(); ++shard) {
    tables_.push_back(&host.shard_table(shard));
  }
  return RunPassImpl(tables_, host, host, costs);
}

PeriodicDetector::DetectOutcome PeriodicDetector::RunDetect(
    const std::vector<const lock::LockTable*>& tables, WalkHost& walk_host,
    CostTable& costs, obs::EventBus* bus, common::Stopwatch& clock) {
  const bool observing = obs::Enabled(bus);
  obs::SpanTracer* tracer = options_.span_tracer;
  const bool tracing = obs::Tracing(tracer);
  // The walk emits through whatever bus the caller hands us, which may be
  // a local recording bus rather than options_.event_bus.
  DetectorOptions walk_options = options_;
  walk_options.event_bus = bus;
  DetectOutcome outcome;
  if (observing) {
    obs::Event start;
    start.kind = obs::EventKind::kPassStart;
    start.a = 1;  // periodic
    bus->Emit(start);
  }
  outcome.pass_span = tracing ? tracer->Open(obs::SpanKind::kPass) : 0;
  uint64_t step_span =
      tracing ? tracer->Open(obs::SpanKind::kStep1, 0, outcome.pass_span) : 0;

  // Step 1: construct the TST (W + H edges) and initialize the walk state
  // — incrementally from the per-table edge caches, or from scratch:
  // Tst::Build over one table, a throwaway builder over several.
  Tst scratch;
  std::optional<TstBuilder> fresh;
  Tst* tst;
  if (options_.incremental_build) {
    tst = &builder_.RefreshTst(tables);
    outcome.incremental = true;
    outcome.cache = builder_.stats();
  } else if (tables.size() == 1) {
    scratch = Tst::Build(*tables.front());
    tst = &scratch;
  } else {
    tst = &fresh.emplace().RefreshTst(tables);
  }
  outcome.num_transactions = tst->size();
  outcome.num_edges = tst->NumEdges();
  if (tracing) {
    tracer->Close(step_span, outcome.cache.edges_reused,
                  outcome.cache.edges_rebuilt);
    step_span = tracer->Open(obs::SpanKind::kStep2, 0, outcome.pass_span);
  }
  outcome.step1_ns = observing ? clock.ElapsedNanos() : 0;
  if (observing) {
    obs::Event step1;
    step1.kind = obs::EventKind::kStep1;
    if (outcome.incremental) {
      step1.a = outcome.cache.num_dirty_resources;
      step1.b = outcome.cache.num_cached_resources;
    }
    step1.value = static_cast<double>(outcome.step1_ns);
    bus->Emit(step1);
  }

  // Step 2: directed walk from every vertex in id order.
  outcome.walk =
      RunWalk(*tst, tst->Transactions(), walk_host, costs, walk_options);
  if (tracing) tracer->Close(step_span, outcome.walk.steps);
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

ResolutionReport PeriodicDetector::RunPassImpl(
    const std::vector<const lock::LockTable*>& tables, WalkHost& walk_host,
    ResolutionHost& resolution_host, CostTable& costs) {
  obs::EventBus* bus = options_.event_bus;
  common::Stopwatch pass_clock;
  DetectOutcome detect = RunDetect(tables, walk_host, costs, bus, pass_clock);

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
  if (obs::Enabled(bus)) {
    obs::Event end;
    end.kind = obs::EventKind::kPassEnd;
    end.a = report.cycles_detected;
    end.b = report.aborted.size();
    end.value = static_cast<double>(pass_clock.ElapsedNanos());
    bus->Emit(end);
  }
  if (detect.pass_span != 0) {
    // Pass-span close contract (SpanEstimator): a = cycles resolved,
    // b = the pass's cost in nanoseconds.
    options_.span_tracer->Close(
        detect.pass_span, report.cycles_detected,
        static_cast<uint64_t>(pass_clock.ElapsedNanos()));
  }
  return report;
}

}  // namespace twbg::core
