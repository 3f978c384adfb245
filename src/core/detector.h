// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Shared option and report types for the periodic and continuous
// detection-resolution algorithms.

#ifndef TWBG_CORE_DETECTOR_H_
#define TWBG_CORE_DETECTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ecr.h"
#include "lock/types.h"
#include "obs/bus.h"
#include "obs/span.h"

namespace twbg::lock {
class ResourceState;
struct TxnLockInfo;
}  // namespace twbg::lock

namespace twbg::core {

/// Read-only lookup of live per-resource lock state.  Implemented by
/// whatever owns the state a detection pass runs against — a single
/// lock table (lock::LockManager) or a sharded set of tables
/// (txn::ConcurrentLockService) — so victim enumeration and post-mortem
/// assembly need not know where resources live.
class ResourceLookup {
 public:
  virtual ~ResourceLookup() = default;
  /// State of `rid`, or nullptr when the resource is unknown/free.
  virtual const lock::ResourceState* FindResource(lock::ResourceId rid)
      const = 0;
};

/// Read-only lookup of per-transaction wait bookkeeping (blocked_on /
/// blocked_mode / wait_span / wait_started), the post-mortem side of
/// ResourceLookup.  For sharded owners this returns the info of the shard
/// the transaction is blocked in.  Readers take a record without
/// blocked_on like nullptr, so for a runnable transaction an owner may
/// return either (the epoch-snapshot mirrors keep no runnable records).
class WaitInfoLookup {
 public:
  virtual ~WaitInfoLookup() = default;
  /// Wait info of `tid`, or nullptr when the transaction is unknown (or,
  /// for some owners, runnable).
  virtual const lock::TxnLockInfo* FindWaitInfo(lock::TransactionId tid)
      const = 0;
};

/// How the resolver breaks a cycle (§4, Definition 4.1).
enum class VictimKind {
  /// TDR-1: abort the junction transaction.
  kAbort,
  /// TDR-2: reposition the incompatible queue prefix (ST) after the
  /// compatible one (AV) — no transaction is aborted.
  kReposition,
};

/// One victim candidate of a detected cycle, with the paper's cost model:
/// TDR-1 candidates cost Cost(T); TDR-2 candidates cost sum(Cost(ST))/2
/// (ST members are merely delayed, not aborted).
struct VictimCandidate {
  VictimKind kind = VictimKind::kAbort;
  /// The TRRP junction this candidate acts at; for TDR-1 also the
  /// transaction to abort.
  lock::TransactionId junction = lock::kInvalidTransaction;
  double cost = 0.0;
  /// TDR-2 only: the resource whose queue is repositioned and the split.
  lock::ResourceId resource = 0;
  std::vector<lock::TransactionId> st;
  std::vector<lock::TransactionId> av;

  std::string ToString() const;
};

/// The resolution decided for one detected cycle.
struct VictimDecision {
  /// Cycle vertices in walk order (starts at the vertex the closing edge
  /// re-entered).
  std::vector<lock::TransactionId> cycle;
  /// Every candidate that was considered, in enumeration order.
  std::vector<VictimCandidate> candidates;
  /// Index into `candidates` of the chosen victim.
  size_t chosen = 0;
  /// Version stamps of the evidence this decision was derived from —
  /// every distinct resource on the cycle with its pre-resolution
  /// ResourceState::version().  Populated only under
  /// DetectorOptions::capture_evidence; the pauseless apply phase
  /// re-checks these stamps against the live shards and drops the
  /// decision as stale on any mismatch (kResolutionRejected).
  std::vector<std::pair<lock::ResourceId, uint64_t>> evidence;
  /// capture_evidence + TDR-2 only: the repositioned resource's version
  /// *after* ApplyTdr2 ran against the snapshot, so a validated live
  /// replay can record what the mirror will look like (version stamps are
  /// process-wide, so replaying the same mutation yields a fresh stamp).
  uint64_t applied_version = 0;

  const VictimCandidate& victim() const { return candidates[chosen]; }
  std::string ToString() const;
};

/// One transaction on a resolved cycle, with the wait state it had at
/// resolution time (see CyclePostMortem).
struct PostMortemMember {
  /// The cycle vertex.
  lock::TransactionId tid = lock::kInvalidTransaction;
  /// The TWBG edge the walk took out of this vertex (H or W labeled).
  TwbgEdge edge;
  /// Resource the member was blocked on at resolution time (nullopt for
  /// pure holders — H-edge tails that are runnable).
  std::optional<lock::ResourceId> blocked_on;
  /// Mode the member was blocked for (kNL when runnable).
  lock::LockMode blocked_mode = lock::LockMode::kNL;
  /// The member's wait-span id (0 when it never blocked).
  uint64_t wait_span = 0;
  /// Logical time the member had spent blocked when the cycle was
  /// resolved (0 for runnable members or bus-less runs).
  uint64_t time_in_queue = 0;

  /// One-line rendering: "T8 -W(R2)-> T2 [blocked X on R2, span=5, ...]".
  std::string ToString() const;
};

/// Forensic record of one resolved cycle, assembled at resolution time
/// while the evidence is live (core::BuildPostMortem): the wait chain
/// with per-member spans and queue ages, the TDR rule applied, the full
/// candidate rationale, and queue snapshots of the cycle's resources.
/// kCycleResolved says *that* a cycle was broken; the post-mortem says
/// *why it existed* and *what it cost whom*.
struct CyclePostMortem {
  /// Logical bus time of the resolution (0 for bus-less runs).
  uint64_t time = 0;
  /// Cycle members in walk order, starting at the re-entered vertex.
  std::vector<PostMortemMember> members;
  /// TDR rule applied.
  VictimKind rule = VictimKind::kAbort;
  /// Junction the chosen candidate acted at (TDR-1: also the victim).
  lock::TransactionId junction = lock::kInvalidTransaction;
  /// TDR-2 only: the repositioned resource (0 for TDR-1).
  lock::ResourceId resource = 0;
  /// The chosen candidate's cost.
  double cost = 0.0;
  /// Every candidate considered, chosen one bracketed — the victim
  /// rationale (same rendering as VictimDecision).
  std::string rationale;
  /// ResourceState::ToString of every distinct resource on the cycle,
  /// captured after the resolution was applied, in edge order.
  std::vector<std::string> queue_snapshots;

  /// Multi-line human-readable report (REPL `postmortem` command).
  std::string ToString() const;

  /// Compact single-line rendering used as the kCyclePostMortem event's
  /// `detail` payload: wait chain with spans, rule, rationale.
  std::string Summary() const;
};

/// Order in which Step 3 processes the abortion list.  The paper leaves
/// this open; its Example 5.1 walks the list in an order that lets an
/// earlier abort spare a later victim, which kReverseInsertion maximizes
/// (victims of inner cycles are examined first).
enum class AbortOrder {
  kReverseInsertion,
  kInsertion,
  kCostDescending,
  kCostAscending,
};

/// Tuning knobs of the detection-resolution algorithm.
struct DetectorOptions {
  /// Offer TDR-2 (resolution without abort).  Disabling yields a pure
  /// TDR-1 resolver — the ablation baseline.
  bool enable_tdr2 = true;
  /// TDR-2 candidate cost = sum(Cost(ST)) / divisor (paper uses 2).
  double tdr2_cost_divisor = 2.0;
  /// Step 3 abortion-list processing order.
  AbortOrder abort_order = AbortOrder::kReverseInsertion;
  /// After a TDR-2, each ST member's cost := cost * multiplier + increment
  /// ("incremented by some value", §5) so it is not postponed forever.
  double st_cost_multiplier = 2.0;
  double st_cost_increment = 0.0;
  /// Continuous detector only: build the TST scoped to the blocked
  /// transaction's reachable region (the COMPSAC '91 companion
  /// optimization) instead of the whole table.  Observably identical;
  /// cost scales with the wait neighbourhood.
  bool scoped_continuous_build = true;
  /// Build the pass's TST through the incremental per-resource ECR edge
  /// cache (core::GraphBuilder) instead of from scratch.  Observably
  /// identical (the differential test proves it); a pass after k
  /// mutations recomputes edges for k resources only.  Disable to get
  /// the from-scratch Step 1 (the benchmark's comparison baseline).
  bool incremental_build = true;
  /// Structured-event bus the detectors emit kPassStart / kStep1 /
  /// kStep2 / kCycleResolved / kCyclePostMortem / kPassEnd to.  Null (the
  /// default) disables emission and the per-pass timing that feeds it;
  /// the only residual cost is one pointer test per pass.  Not owned.
  obs::EventBus* event_bus = nullptr;
  /// Span tracer the sequential detectors open kPass / kStep1 / kStep2
  /// spans on, with one kResolution child span per resolved cycle (its
  /// id stamped into the matching kCyclePostMortem event's `span` field).
  /// Null disables span emission at one pointer test per pass.  The
  /// tracer must share the bus's writer serialization; the parallel
  /// sharded pass leaves this null and lets the concurrent service emit
  /// its own pass/publish/apply spans instead (obs/span.h).  Not owned.
  obs::SpanTracer* span_tracer = nullptr;
  /// Assemble a forensic core::CyclePostMortem for every resolved cycle
  /// and store it in ResolutionReport::post_mortems.  Post-mortems are
  /// also assembled — and emitted as kCyclePostMortem events — whenever
  /// an active event_bus is attached, regardless of this flag.
  bool collect_post_mortems = false;
  /// Record each decision's evidence stamps (VictimDecision::evidence /
  /// applied_version) so a pass run against a sealed snapshot can be
  /// validated against the live shards before its resolutions apply.  Off
  /// by default: stop-the-world and sequential passes mutate live state
  /// in-walk and need no validation.
  bool capture_evidence = false;
};

/// Outcome of one detection-resolution pass.
///
/// What a pass counts depends on the tables it ran over.  A pass over a
/// whole lock table (sequential, continuous, stop-the-world) puts every
/// transaction on the table in its TST.  A pauseless pass
/// (txn::ConcurrentLockService's kEpochDelta) runs over shard mirrors
/// that hold only the waiter-bearing resources (txn/epoch_snapshot.h),
/// so a transaction that appears only on uncontended resources is not in
/// its TST: `num_transactions`, `steps` and the graph-cache counters can
/// be lower than a stop-the-world report on the same state (each such
/// transaction costs the walk one step), while cycles, decisions,
/// post-mortems and the abortion, spared, grant and change lists are the
/// same.
struct ResolutionReport {
  /// Cycles the walk actually detected and resolved (the paper's c').
  size_t cycles_detected = 0;
  /// Per-cycle resolution decisions in detection order.
  std::vector<VictimDecision> decisions;
  /// Forensic per-cycle post-mortems, parallel to `decisions`.  Populated
  /// when DetectorOptions::collect_post_mortems is set or an active
  /// event_bus is attached; deliberately NOT rendered by ToString() so
  /// differential byte-for-byte report comparisons stay stable.
  std::vector<CyclePostMortem> post_mortems;
  /// Transactions aborted at Step 3 (after sparing) — their locks are
  /// already released; the caller must terminate/restart them.
  std::vector<lock::TransactionId> aborted;
  /// Victims removed from the abortion list because an earlier abort
  /// already unblocked them (Step 3 grant-list check).
  std::vector<lock::TransactionId> spared;
  /// Transactions whose blocked request was granted during Step 3.
  std::vector<lock::TransactionId> granted;
  /// Resources whose queues were repositioned by TDR-2 (change list).
  std::vector<lock::ResourceId> repositioned;
  /// Walk loop iterations — proxy for the O(n + e(c'+1)) time bound.
  size_t steps = 0;
  /// Vertices and edges of the TST the pass ran over (n and e).
  size_t num_transactions = 0;
  size_t num_edges = 0;
  /// Step 1 graph-cache statistics (all zero for from-scratch builds):
  /// resources whose ECR edges were recomputed vs served from cache, and
  /// the edge counts on each side.  See core::GraphCacheStats.
  size_t num_dirty_resources = 0;
  size_t num_cached_resources = 0;
  size_t edges_rebuilt = 0;
  size_t edges_reused = 0;
  /// Pauseless passes only: decisions dropped at apply time because their
  /// evidence stamps no longer matched the live shards (each re-derived
  /// by a later pass if the cycle persists).  Always 0 for stop-the-world
  /// and sequential passes, and omitted from ToString() when 0 so
  /// differential byte-for-byte comparisons stay stable.
  size_t rejected = 0;

  /// True when the pass found any deadlock.
  bool found_deadlock() const { return cycles_detected > 0; }

  std::string ToString() const;
};

}  // namespace twbg::core

#endif  // TWBG_CORE_DETECTOR_H_
