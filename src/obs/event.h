// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Typed structured events for the cross-layer observability bus.  Every
// layer of the system — the lock manager, the detection engine, the
// periodic/continuous detectors, the transaction manager, the simulator —
// publishes its state changes as Event records; sinks (docs/OBSERVABILITY.md)
// turn the stream into traces, latency histograms, JSONL logs or
// Prometheus-style metric files.
//
// Layering: obs sits between common and lock.  It may include the
// header-only identifier types of lock/types.h but must not call into the
// lock library (the lock library links *us*), which is why mode names are
// rendered by a local table instead of lock::ToString.

#ifndef TWBG_OBS_EVENT_H_
#define TWBG_OBS_EVENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "lock/types.h"

namespace twbg::obs {

/// Every event kind emitted by the system, grouped by layer.  The payload
/// convention for each kind (which of tid/rid/mode/a/b/value is meaningful)
/// is documented per enumerator; unused fields are zero.
enum class EventKind : uint8_t {
  // -- transaction layer (txn::TransactionManager, sim::Simulator) --
  /// A transaction started.  `tid`; `a` = 0.
  kTxnBegin = 0,
  /// An aborted transaction's re-execution started (driver-level).
  /// `tid` (fresh execution id); `a` = restart count so far.
  kTxnRestart,
  /// A transaction committed.  `tid`.
  kTxnCommit,
  /// A transaction aborted.  `tid`; `a` = 1 when it was a deadlock victim,
  /// 0 for a voluntary abort.
  kTxnAbort,

  // -- lock layer (lock::LockManager) --
  /// A lock request was granted immediately.  `tid`, `rid`, `mode`;
  /// `a` = 1 when the mode was already covered by the held lock.
  kLockGrant,
  /// A fresh lock request blocked.  `tid`, `rid`, `mode`;
  /// `a` = queue depth of the resource after enqueueing.
  kLockBlock,
  /// A lock conversion was requested by a holder.  `tid`, `rid`,
  /// `mode` (the requested mode); `a` = 1 granted, 0 blocked.
  kLockConvert,
  /// A transaction released everything (commit/abort path).  `tid`;
  /// `a` = resources it appeared on; `b` = waiters granted by the release.
  kLockRelease,
  /// A blocked request or conversion became granted.  `tid` (the waiter),
  /// `rid` (where it was waiting).
  kLockWakeup,
  /// A completed lock wait, measured by the driver.  `tid`;
  /// `value` = wait duration in simulator ticks.
  kWaitEnd,
  /// TDR-2 queue repositioning was applied to a resource (the no-abort
  /// resolution).  `tid` = the junction transaction, `rid` = the resource.
  kUprReposition,

  // -- detection layer (core::PeriodicDetector, core::ContinuousDetector,
  //    core::RunWalk, sim::Simulator strategy invocations) --
  /// A detection-resolution pass began.  `tid` = the freshly blocked root
  /// (0 for a periodic pass); `a` = 1 periodic, 0 continuous.
  kPassStart,
  /// Step 1 (graph construction) finished.  `tid` as in kPassStart;
  /// `a` = cache misses (dirty resources), `b` = cache hits (resources
  /// served from the PR-1 incremental edge cache); both 0 for a
  /// from-scratch build; `value` = build time in nanoseconds.  A
  /// pauseless pass builds from mirrors of the waiter-bearing resources
  /// only, so its counts can be lower than a stop-the-world pass's over
  /// the same state (ResolutionReport, core/detector.h).
  kStep1,
  /// Step 2 (the directed walk, resolutions applied on the spot)
  /// finished.  `a` = cycles detected, `b` = walk steps (lower in a
  /// pauseless pass by one per transaction seen on uncontended resources
  /// only); `value` = walk time in nanoseconds.
  kStep2,
  /// The pass finished (after Step 3 reconciliation).  `a` = cycles
  /// detected, `b` = transactions aborted; `value` = total pass time in
  /// nanoseconds.
  kPassEnd,
  /// One detected cycle was resolved in-walk.  `tid` = the junction acted
  /// at, `rid` = the repositioned resource (TDR-2 only, else 0);
  /// `a` = cycle length in vertices, `b` = 1 for TDR-2 repositioning /
  /// 0 for TDR-1 abort; `value` = the chosen candidate's cost.
  kCycleResolved,
  /// The driver's stall recovery broke a deadlock the strategy missed.
  /// `tid` = the force-aborted victim.
  kDetectorMiss,

  // -- forensics layer (core detection engine, obs::Watchdog) --
  /// Post-mortem of one resolved cycle, emitted right after its
  /// kCycleResolved.  `tid` = the junction acted at, `rid` = the
  /// repositioned resource (TDR-2 only, else 0); `a` = cycle length,
  /// `b` = 1 TDR-2 / 0 TDR-1; `value` = the chosen candidate's cost;
  /// `detail` = the compact CyclePostMortem rendering (wait chain,
  /// member spans and queue ages, candidate rationale, queue snapshots).
  kCyclePostMortem,
  /// Watchdog: a transaction is starving.  `tid`, `rid` = the resource it
  /// waits on (0 when flagged for repeated victimization); `span` = its
  /// wait span (0 likewise); `a` = wait-span age in ticks or restart
  /// count; `b` = 1 for span-age starvation, 2 for repeated
  /// victimization; `value` = `a` as a double.
  kStarvation,
  /// Watchdog: a resource looks convoyed.  `rid`; `a` = concurrently
  /// blocked wait spans on the resource; `b` = 1-based rank among the
  /// flagged hot resources this check; `value` = `a` as a double.
  kConvoy,

  // -- concurrency layer (txn::ConcurrentLockService) --
  /// Per-shard contention counters, published once per detection pass by
  /// the sharded service.  `rid` = the shard index (not a resource);
  /// `a` = cumulative contended mutex acquisitions (lock attempts that
  /// found the shard mutex held), `b` = cumulative operations routed to
  /// the shard; `value` = cumulative shard-mutex hold time in
  /// nanoseconds.
  kShardContention,

  // -- robustness layer (txn/robustness: deadlines, admission control,
  //    graceful degradation, fault injection) --
  /// A lock-wait deadline expired and the wait was cancelled (the waiter
  /// left the resource queue with invariants restored).  `tid` = the
  /// expired waiter, `rid` = the resource it waited on, `mode` = the
  /// blocked mode, `span` = the cancelled wait span; `a` = the
  /// transaction's cumulative deadline expiries, `b` = 1 when the expiry
  /// escalated to an abort (abort-after-N or txn budget).
  kDeadlineExpired,
  /// Admission control shed a request with kResourceExhausted.  `tid`;
  /// `rid` = the target resource (0 for a rejected Begin); `a` = observed
  /// load (in-flight txns for Begin, queue depth for Acquire), `b` = the
  /// configured limit.
  kAdmissionReject,
  /// The periodic engine entered (or extended) degraded operation because
  /// a pass blew its pause budget.  `a` = remaining degraded passes,
  /// `b` = the pass's pause in microseconds; `value` = the budget in
  /// microseconds.
  kDegraded,
  /// A planned fault fired.  `tid` / `rid` = targets when applicable
  /// (`rid` carries the shard index for stall faults); `a` = the
  /// FaultKind as an integer, `b` = the schedule address (tick or op
  /// index); `value` = the fault duration; `detail` = Fault::ToString().
  kFaultInjected,

  // -- pauseless periodic detection (txn::ConcurrentLockService epoch
  //    snapshots; see docs/DESIGN.md "Epoch snapshots") --
  /// One shard published its incremental delta into the detector's epoch
  /// snapshot (the only moment the pauseless pass holds that shard's
  /// mutex).  `rid` = the shard index (not a resource); `a` = resources
  /// staged, copied into the mirror or erased from it
  /// (ShardCaptureStats, txn/epoch_snapshot.h); `b` = 1 when the journal
  /// could not answer and the capture fell back to a full version-compare
  /// sweep; `span` = the snapshot epoch being built; `value` = the shard's
  /// publish pause in nanoseconds.
  kSnapshotPublish,
  /// A resolution command derived from the sealed epoch failed its
  /// version-stamp validation at apply time (the lock state moved between
  /// seal and apply) and was dropped, to be re-derived next pass.  Same
  /// payload shape as the kCycleResolved it replaces: `tid` = the chosen
  /// junction, `rid` = the repositioned resource (TDR-2 only, else 0);
  /// `a` = cycle length, `b` = 1 TDR-2 / 0 TDR-1; `value` = the chosen
  /// candidate's cost.
  kResolutionRejected,

  // -- scheduling layer (sched::PeriodController; see docs/TUNING.md) --
  /// The closed-loop period controller retuned the detection period.
  /// `a` = the previous period, `b` = the new period (host time units —
  /// simulator ticks or service microseconds); `value` = the EWMA
  /// deadlock-formation-rate estimate behind the move, in deadlocks per
  /// host time unit.
  kPeriodRetuned,
};

/// Number of EventKind enumerators (array-sizing constant).
inline constexpr size_t kNumEventKinds =
    static_cast<size_t>(EventKind::kPeriodRetuned) + 1;

/// Canonical snake_case name of `kind` ("lock_grant", "pass_end", ...).
std::string_view ToString(EventKind kind);

/// Inverse of ToString(EventKind): the kind named `name`, or nullopt for
/// an unknown name.  Used by the offline trace reader.
std::optional<EventKind> EventKindFromName(std::string_view name);

/// Lock-mode name as emitted in events ("NL", "IS", ... — obs's local
/// table; see the layering note above for why lock::ToString is not used).
std::string_view LockModeName(lock::LockMode mode);

/// Inverse of LockModeName, or nullopt for an unknown name.  Used by the
/// offline trace reader.
std::optional<lock::LockMode> LockModeFromName(std::string_view name);

/// One structured event.  Fixed-size except for `detail` (empty for all
/// hot-path kinds, so emission is still effectively a struct copy);
/// fields not meaningful for the kind (see EventKind) are zero.
struct Event {
  /// Global emission order, assigned by the bus (1-based, 0 = unstamped).
  uint64_t seq = 0;
  /// Logical timestamp: the bus's current time (EventBus::set_time) at
  /// emission — simulator ticks in sim runs, caller-defined elsewhere.
  uint64_t time = 0;
  /// What happened.
  EventKind kind = EventKind::kTxnBegin;
  /// Subject transaction (0 when not applicable).
  lock::TransactionId tid = 0;
  /// Subject resource (0 when not applicable).
  lock::ResourceId rid = 0;
  /// Lock mode involved (kNL when not applicable).
  lock::LockMode mode = lock::LockMode::kNL;
  /// Kind-specific counters — see the EventKind documentation.
  uint64_t a = 0;
  uint64_t b = 0;
  /// Wait-span correlation id: every block (fresh request or blocked
  /// conversion) opens a span; the matching wakeup and wait-end carry the
  /// same id, so block -> wakeup -> wait-end causality survives
  /// interleaving.  0 for kinds with no associated wait.
  uint64_t span = 0;
  /// Kind-specific measurement (durations in ns, waits in ticks, costs).
  double value = 0.0;
  /// Kind-specific string payload (post-mortem renderings); empty — and
  /// allocation-free — for every hot-path kind.
  std::string detail;

  /// One-line human-readable rendering.
  std::string ToString() const;
};

/// Version stamped as "schema_version" on every JSONL line.  Bump when a
/// field is added/renamed/retyped; offline readers (obs::ReadTraceFile,
/// tools/twbg-trace) reject lines with any other version.  Version 1 was
/// the unstamped pre-forensics schema (no span/detail fields).
inline constexpr int kJsonSchemaVersion = 2;

/// Escapes `text` for embedding inside a JSON string literal: quotes,
/// backslashes and control characters (as \uXXXX or the short forms).
std::string JsonEscape(std::string_view text);

/// Renders `event` as one JSON object (no trailing newline), the format
/// of the JSONL exporter: {"seq":..,"schema_version":..,"time":..,
/// "kind":"..",...}.  Fields that are zero for the kind are still emitted
/// so every line has an identical schema.
std::string ToJson(const Event& event);

}  // namespace twbg::obs

#endif  // TWBG_OBS_EVENT_H_
