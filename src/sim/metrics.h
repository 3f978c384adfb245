// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Metrics collected by one simulator run — the columns of the comparison
// experiments.

#ifndef TWBG_SIM_METRICS_H_
#define TWBG_SIM_METRICS_H_

#include <cstddef>
#include <string>

#include "sim/stats.h"

namespace twbg::sim {

/// Aggregate outcome of a Simulator::Run.
struct SimMetrics {
  /// Logical transactions committed.
  size_t committed = 0;
  /// Transaction executions killed by the detection strategy.
  size_t deadlock_aborts = 0;
  /// Executions killed by the driver's stall recovery because the
  /// strategy missed a real deadlock (0 for complete detectors).
  size_t missed_deadlocks = 0;
  /// Strategy aborts of transactions the oracle says were NOT stuck
  /// (timeouts produce these); only counted when the config enables the
  /// oracle cross-check.
  size_t false_aborts = 0;
  /// Re-executions scheduled after aborts.
  size_t restarts = 0;
  /// Deadlock cycles the strategy reported.
  size_t cycles_found = 0;
  /// Resolutions that aborted nobody (H/W-TWBG TDR-2) — the paper's
  /// headline feature.
  size_t no_abort_resolutions = 0;
  /// Lock requests whose work was thrown away by aborts.
  size_t wasted_ops = 0;
  /// Simulated ticks consumed.
  size_t ticks = 0;
  /// Strategy invocations (OnBlock + OnPeriodic).
  size_t detector_invocations = 0;
  /// Strategy-reported work units.
  size_t detector_work = 0;
  /// Incremental graph-cache totals across strategy invocations (zeros
  /// when the strategy builds from scratch): resources recomputed vs
  /// reused, and edges on each side.
  size_t graph_dirty_resources = 0;
  size_t graph_cached_resources = 0;
  size_t graph_edges_rebuilt = 0;
  size_t graph_edges_reused = 0;
  /// Wall-clock seconds inside the strategy.
  double detector_seconds = 0.0;
  /// Sum over ticks of the number of blocked transactions (lost
  /// concurrency integral).
  size_t blocked_ticks = 0;
  /// True when the run hit max_ticks before committing everything.
  bool timed_out = false;
  /// Distribution of completed lock waits, in ticks (block -> grant; waits
  /// ended by abort are not counted).
  SampleStats wait_ticks;
  /// Trace events the bounded ring discarded (0 when tracing is off or the
  /// capacity sufficed) — nonzero means trace-based analyses saw a suffix
  /// of the run only.
  size_t trace_dropped = 0;
  /// JSONL export lines lost to write failures (mirror of
  /// obs::JsonlSink::write_errors for the Simulator::StreamEventsTo sink;
  /// 0 when streaming is off or every write succeeded).
  size_t trace_write_errors = 0;
  /// Watchdog starvation alerts raised during the run (0 when
  /// SimConfig::enable_watchdog is off).
  size_t starvation_alerts = 0;
  /// Watchdog convoy alerts raised during the run (0 likewise).
  size_t convoy_alerts = 0;
  /// Lock waits ended by deadline expiry (the waiter was withdrawn from
  /// the queue).  Disjoint from detector resolution: these waits are NOT
  /// counted in wait_ticks (which measures block -> grant) and their
  /// transactions are NOT deadlock_aborts.
  size_t deadline_expired_waits = 0;
  /// Executions killed by deadline policy — abort-after-N expiries,
  /// exhausted retry budget, or transaction-budget overrun.  Disjoint
  /// from deadlock_aborts (detector-chosen victims) and missed_deadlocks
  /// (driver stall recovery).
  size_t deadline_aborts = 0;
  /// Begins/acquires shed by admission control (each later retried).
  size_t admission_rejects = 0;
  /// Planned faults that actually fired during the run.
  size_t faults_injected = 0;
  /// Sharded-service counters, populated by concurrent drivers
  /// (bench_concurrent, the stress suite) from
  /// txn::ConcurrentLockService::shard_stats and pause_times_ns; the
  /// single-threaded simulator leaves them zero and ToString omits them.
  /// Shard-mutex acquisitions that found the mutex already held.
  size_t shard_mutex_waits = 0;
  /// Estimated total shard-mutex hold time across shards, nanoseconds:
  /// the sum of txn::ShardStats::hold_ns, which samples client critical
  /// sections one in 16.
  size_t shard_hold_ns = 0;
  /// Detection passes completed (stop-the-world or pauseless).
  size_t detector_passes = 0;
  /// Total client-visible pause time across passes, nanoseconds (whole
  /// pass under kStopTheWorld; max(publish, apply) under kEpochDelta).
  size_t detector_pause_ns = 0;
  /// Pauseless (kEpochDelta) counters, likewise populated by concurrent
  /// drivers and zero elsewhere.
  /// Per-shard snapshot publishes (num_shards per pauseless pass).
  size_t snapshot_publishes = 0;
  /// Total shard-publish pause time, nanoseconds.
  size_t snapshot_publish_ns = 0;
  /// Total seal-to-apply detection lag across pauseless passes,
  /// nanoseconds.
  size_t snapshot_lag_ns = 0;
  /// Resolution commands dropped by stamp validation (each retried by a
  /// later pass).
  size_t resolutions_rejected = 0;
  /// Closed-loop scheduling counters (sched::PeriodController; zero when
  /// the run used a fixed detection period).
  /// Period retunes the controller applied during the run.
  size_t period_retunes = 0;
  /// The detection period in effect when the run ended, ticks (equals
  /// the configured detection_period when no controller moved it; 0 when
  /// periodic detection was disabled).
  size_t final_detection_period = 0;
  /// Smallest and largest periods in effect at any point of the run
  /// (both equal final_detection_period when nothing retuned).
  size_t min_detection_period = 0;
  size_t max_detection_period = 0;

  /// Committed transactions per 1000 ticks.
  double Throughput() const {
    return ticks == 0 ? 0.0 : 1000.0 * static_cast<double>(committed) /
                                  static_cast<double>(ticks);
  }

  /// One-line summary.
  std::string ToString() const;
};

}  // namespace twbg::sim

#endif  // TWBG_SIM_METRICS_H_
