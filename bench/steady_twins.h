// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Interleaved timing of the steady-state detection pass, shared by the
// overhead benchmarks (bench_steady_state, bench_trace).  Each timed
// configuration gets its own twin of the steady-state table
// (bench::BuildSteadyState).  The twins are built together: every acquire
// of the build, and then every warm-up pass, goes to each twin in turn.
// Every twin then receives the same mutation stream, which is
// deterministic because the table never deadlocks.  Passes run in rounds
// of one pass per configuration, in an order that rotates every round and
// is reversed every other sweep, so each configuration goes first, last
// and after each other one equally often.
//
// The configurations also rotate over the tables: in round p,
// configuration i times its pass on table (i + p) mod n, through that
// table's detector pointed at configuration i's bus and tracer, right
// after that table's churn.  Two tables built alike still differ by where
// their memory landed, by a few percent that stay put for the whole run;
// with one configuration per table, that difference decided overhead
// gates of 1-3%.  Overheads are therefore paired on the table
// (PairedOverhead): in each cycle of n rounds every configuration runs
// once on every table, and the observed pass on a table is divided by the
// bare pass on the same table in the same cycle.  The overhead is the
// median of those ratios, minus 1.  The ratio of the two mean passes is
// reported beside it.

#ifndef TWBG_BENCH_STEADY_TWINS_H_
#define TWBG_BENCH_STEADY_TWINS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench/scenarios.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/periodic_detector.h"

namespace twbg::bench {

/// One timed configuration of the pass, and the table it was built with.
struct SteadyTwin {
  /// `options` configures the detector, with its own bus and tracer
  /// fields, and must differ between the twins timed together in those
  /// two fields only.  `bus` and `tracer` are attached to the lock manager
  /// once the table is built (BuildTwins), so they see the steady-state
  /// churn of this twin's table, not the setup.
  explicit SteadyTwin(const core::DetectorOptions& options,
                      obs::EventBus* bus = nullptr,
                      obs::SpanTracer* tracer = nullptr)
      : detector(options),
        bus(bus),
        tracer(tracer),
        pass_bus(options.event_bus),
        pass_tracer(options.span_tracer) {}

  double ns_per_pass() const {
    if (pass_ns.empty()) return 0;
    int64_t total = 0;
    for (int64_t ns : pass_ns) total += ns;
    return static_cast<double>(total) / static_cast<double>(pass_ns.size());
  }

  lock::LockManager manager;
  SteadyState steady;
  core::PeriodicDetector detector;
  core::CostTable costs;
  obs::EventBus* bus;
  obs::SpanTracer* tracer;
  /// Where this configuration's passes report, on whichever table they run
  /// (the detector's own options change as it hosts other configurations).
  obs::EventBus* pass_bus;
  obs::SpanTracer* pass_tracer;
  /// Report of the configuration's latest timed pass.
  core::ResolutionReport last;
  /// The configuration's timed passes, one per round, and the index of
  /// the twin whose table each ran on.
  std::vector<int64_t> pass_ns;
  std::vector<size_t> table;
};

/// Builds every twin's table with `bulk` pool holders, one acquire at a
/// time across the twins, attaches each twin's bus and tracer, then runs
/// one untimed pass per twin, in turn, to warm the caches.
inline void BuildTwins(const std::vector<SteadyTwin*>& twins, size_t resources,
                       size_t bulk) {
  std::vector<lock::LockManager*> managers;
  for (SteadyTwin* twin : twins) managers.push_back(&twin->manager);
  const SteadyState steady = BuildSteadyState(managers, resources, bulk);
  for (SteadyTwin* twin : twins) {
    twin->steady = steady;
    // Shallow invariant check only — the deep per-transaction sweep is
    // O(transactions x resources) and would dwarf the benchmark setup.
    TWBG_CHECK(twin->manager.CheckInvariants(/*deep=*/false).ok());
    twin->manager.set_event_bus(twin->bus);
    twin->manager.set_span_tracer(twin->tracer);
  }
  for (SteadyTwin* twin : twins) {
    twin->detector.RunPass(twin->manager, twin->costs);
  }
}

/// Times `passes` rounds of one pass per configuration, interleaved and
/// rotated over the tables as the file comment describes; each pass is
/// preceded by `mutations` churn mutations of its table (outside the
/// timing), the same resources for every table.
inline void TimeInterleaved(const std::vector<SteadyTwin*>& twins,
                            size_t resources, size_t mutations,
                            size_t passes) {
  const size_t n = twins.size();
  for (SteadyTwin* twin : twins) {
    twin->pass_ns.reserve(passes);
    twin->table.reserve(passes);
  }
  size_t cursor = 0;
  for (size_t p = 0; p < passes; ++p) {
    const bool reversed = (p / n) % 2 == 1;
    for (size_t k = 0; k < n; ++k) {
      const size_t rotated = (p + k) % n;
      const size_t c = reversed ? n - 1 - rotated : rotated;
      const size_t t = (c + p) % n;
      SteadyTwin& config = *twins[c];
      SteadyTwin& table = *twins[t];
      for (size_t i = 0; i < mutations; ++i) {
        MutateSteadyState(
            table.manager, table.steady,
            static_cast<lock::ResourceId>((cursor + i) % resources + 1));
      }
      table.detector.set_observers(config.pass_bus, config.pass_tracer);
      common::Stopwatch watch;
      config.last = table.detector.RunPass(table.manager, table.costs);
      config.pass_ns.push_back(watch.ElapsedNanos());
      config.table.push_back(t);
    }
    cursor += mutations;
  }
}

/// Median, over every table and every complete cycle of rounds, of
/// `observed`'s pass on the table divided by `bare`'s pass on the same
/// table in the same cycle, minus 1.  Both must have been timed together,
/// `n` configurations over at least `n` rounds.
inline double PairedOverhead(const SteadyTwin& observed,
                             const SteadyTwin& bare, size_t n) {
  const size_t rounds = bare.pass_ns.size();
  TWBG_CHECK(n > 0 && rounds >= n && observed.pass_ns.size() == rounds);
  std::vector<double> ratios;
  ratios.reserve(rounds);
  for (size_t first = 0; first + n <= rounds; first += n) {
    for (size_t r = first; r < first + n; ++r) {
      for (size_t q = first; q < first + n; ++q) {
        if (bare.table[q] != observed.table[r]) continue;
        ratios.push_back(static_cast<double>(observed.pass_ns[r]) /
                         static_cast<double>(bare.pass_ns[q]));
      }
    }
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t m = ratios.size();
  const double median =
      m % 2 == 1 ? ratios[m / 2] : (ratios[m / 2 - 1] + ratios[m / 2]) / 2;
  return median - 1.0;
}

}  // namespace twbg::bench

#endif  // TWBG_BENCH_STEADY_TWINS_H_
