// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "core/continuous_detector.h"

#include "common/stopwatch.h"
#include "core/scoped_tst.h"
#include "core/tst.h"

namespace twbg::core {

ResolutionReport ContinuousDetector::OnBlock(lock::LockManager& manager,
                                             CostTable& costs,
                                             lock::TransactionId blocked) {
  obs::EventBus* bus = options_.event_bus;
  const bool observing = obs::Enabled(bus);
  obs::SpanTracer* tracer = options_.span_tracer;
  const bool tracing = obs::Tracing(tracer);
  common::Stopwatch pass_clock;
  if (observing) {
    obs::Event start;
    start.kind = obs::EventKind::kPassStart;
    start.tid = blocked;
    start.a = 0;  // continuous
    bus->Emit(start);
  }
  const uint64_t pass_span = tracing ? tracer->Open(obs::SpanKind::kPass) : 0;
  if (tracing) tracer->SetContext(pass_span, blocked, 0);
  uint64_t step_span =
      tracing ? tracer->Open(obs::SpanKind::kStep1, 0, pass_span) : 0;

  // A scoped build is already proportional to the blocked transaction's
  // wait neighbourhood; the incremental Step 1 serves the full-table path.
  Tst scratch;
  Tst* tst;
  if (options_.scoped_continuous_build) {
    scratch = BuildReachableTst(manager, blocked).tst;
    tst = &scratch;
  } else if (options_.incremental_build) {
    tst = &builder_.RefreshTst(manager.table());
  } else {
    scratch = Tst::Build(manager.table());
    tst = &scratch;
  }
  const size_t num_transactions = tst->size();
  const size_t num_edges = tst->NumEdges();
  const bool from_cache =
      !options_.scoped_continuous_build && options_.incremental_build;
  if (tracing) {
    tracer->Close(step_span, builder_.stats().edges_reused,
                  builder_.stats().edges_rebuilt);
    step_span = tracer->Open(obs::SpanKind::kStep2, 0, pass_span);
  }
  const int64_t step1_ns = observing ? pass_clock.ElapsedNanos() : 0;
  if (observing) {
    obs::Event step1;
    step1.kind = obs::EventKind::kStep1;
    if (from_cache) {
      step1.a = builder_.stats().num_dirty_resources;
      step1.b = builder_.stats().num_cached_resources;
    }
    step1.value = static_cast<double>(step1_ns);
    bus->Emit(step1);
  }

  // Every new edge created by this block is incident to `blocked`, so any
  // newly formed cycle passes through it; a walk rooted there finds it.
  WalkOutcome walk = RunWalk(*tst, {blocked}, manager, costs, options_);
  if (tracing) tracer->Close(step_span, walk.steps);
  if (observing) {
    obs::Event step2;
    step2.kind = obs::EventKind::kStep2;
    step2.a = walk.cycles;
    step2.b = walk.steps;
    step2.value = static_cast<double>(pass_clock.ElapsedNanos() - step1_ns);
    bus->Emit(step2);
  }

  ResolutionReport report =
      ApplyResolution(std::move(walk), manager, costs, options_);
  report.num_transactions = num_transactions;
  report.num_edges = num_edges;
  if (from_cache) {
    const GraphCacheStats& stats = builder_.stats();
    report.num_dirty_resources = stats.num_dirty_resources;
    report.num_cached_resources = stats.num_cached_resources;
    report.edges_rebuilt = stats.edges_rebuilt;
    report.edges_reused = stats.edges_reused;
  }
  if (observing) {
    obs::Event end;
    end.kind = obs::EventKind::kPassEnd;
    end.tid = blocked;
    end.a = report.cycles_detected;
    end.b = report.aborted.size();
    end.value = static_cast<double>(pass_clock.ElapsedNanos());
    bus->Emit(end);
  }
  if (tracing) {
    // Pass-span close contract (SpanEstimator): a = cycles resolved,
    // b = the pass's cost in nanoseconds.
    tracer->Close(pass_span, report.cycles_detected,
                  static_cast<uint64_t>(pass_clock.ElapsedNanos()));
  }
  return report;
}

}  // namespace twbg::core
