// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Interleaved timing of the steady-state detection pass, shared by the
// overhead benchmarks (bench_steady_state, bench_trace).  Each timed
// configuration gets its own twin of the steady-state table
// (bench::BuildSteadyState), and every twin receives the same mutation
// stream, which is deterministic because the table never deadlocks.
// Passes alternate between the twins: each twin's churn is applied right
// before its own timed pass, in an order that rotates every pass and is
// reversed every other sweep, so each configuration goes first, last and
// after each other one equally often.  Host drift then lands on every
// configuration alike; timing one configuration after another, seconds
// apart, let drift decide overhead gates of a few percent.

#ifndef TWBG_BENCH_STEADY_TWINS_H_
#define TWBG_BENCH_STEADY_TWINS_H_

#include <cstdint>
#include <vector>

#include "bench/scenarios.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/periodic_detector.h"

namespace twbg::bench {

/// One timed configuration of the pass, on its own copy of the table.
struct SteadyTwin {
  /// Builds the table with `bulk` pool holders, attaches `bus` and
  /// `tracer` to its lock manager after the bulk build (so they see the
  /// steady-state churn, not the setup) and runs one untimed pass to warm
  /// the caches.  `options` configures the detector, with its own bus and
  /// tracer fields.
  SteadyTwin(size_t resources, size_t bulk, const core::DetectorOptions& options,
             obs::EventBus* bus = nullptr, obs::SpanTracer* tracer = nullptr)
      : steady(BuildSteadyState(manager, resources, bulk)), detector(options) {
    // Shallow invariant check only — the deep per-transaction sweep is
    // O(transactions x resources) and would dwarf the benchmark setup.
    TWBG_CHECK(manager.CheckInvariants(/*deep=*/false).ok());
    manager.set_event_bus(bus);
    manager.set_span_tracer(tracer);
    detector.RunPass(manager, costs);
  }

  double ns_per_pass() const {
    return passes == 0 ? 0
                       : static_cast<double>(total_ns) /
                             static_cast<double>(passes);
  }

  lock::LockManager manager;
  SteadyState steady;
  core::PeriodicDetector detector;
  core::CostTable costs;
  /// Report of the twin's latest timed pass.
  core::ResolutionReport last;
  int64_t total_ns = 0;
  size_t passes = 0;
};

/// Times `passes` passes of every twin, interleaved as the file comment
/// describes; each pass is preceded by `mutations` churn mutations of its
/// twin (outside the timing), the same resources for every twin.
inline void TimeInterleaved(const std::vector<SteadyTwin*>& twins,
                            size_t resources, size_t mutations,
                            size_t passes) {
  const size_t n = twins.size();
  size_t cursor = 0;
  for (size_t p = 0; p < passes; ++p) {
    const bool reversed = (p / n) % 2 == 1;
    for (size_t k = 0; k < n; ++k) {
      const size_t rotated = (p + k) % n;
      SteadyTwin& twin = *twins[reversed ? n - 1 - rotated : rotated];
      for (size_t i = 0; i < mutations; ++i) {
        MutateSteadyState(
            twin.manager, twin.steady,
            static_cast<lock::ResourceId>((cursor + i) % resources + 1));
      }
      common::Stopwatch watch;
      twin.last = twin.detector.RunPass(twin.manager, twin.costs);
      twin.total_ns += watch.ElapsedNanos();
      ++twin.passes;
    }
    cursor += mutations;
  }
}

}  // namespace twbg::bench

#endif  // TWBG_BENCH_STEADY_TWINS_H_
