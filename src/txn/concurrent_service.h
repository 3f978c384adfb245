// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Thread-safe strict-2PL lock service: one engine, two detection policies.
//
// The lock table is striped into `num_shards` hash-sharded partitions,
// each with its own mutex, LockManager (own version-stamp domain and
// mutation journal) and contention counters.  Acquires touch exactly one
// shard; commits/aborts lock only the shards the transaction touched.
// The detection policy (DetectionMode) decides when deadlocks are found:
//
//   * kContinuous (the default): the paper's continuous companion on the
//     one-shard engine.  An acquire that blocks runs
//     core::ContinuousDetector::OnBlock rooted at the requester, under the
//     shard locks it already holds — every deadlock is resolved inside the
//     request that would have completed the cycle, so no detector thread
//     is needed and no wait can hang.  This is the zero-period limit of
//     periodic detection; it needs the whole wait-for state behind one
//     mutex, hence exactly one shard.
//
//   * kPeriodic: deadlocks are resolved by the periodic pass (§5) — run
//     by a dedicated detector thread every `detection_period`, or by
//     explicit RunDetectionPass() calls.  Each pass stamps a new
//     snapshot epoch.  Two pass strategies (SnapshotStrategy):
//
//       - kEpochDelta (the default, "pauseless"): each shard publishes
//         its mutation-journal delta plus a slim mirror of its wait map
//         into a detector-owned epoch mirror (txn/epoch_snapshot.h) under
//         its own mutex — an O(delta + active transactions) pause,
//         independent of table size — and the detector's Step 1/2 walk
//         runs over the sealed mirrors while client traffic proceeds on
//         the live shards.  Resolution applies as a *validated
//         change-list*: every decision carries the version stamps of the
//         evidence it was derived from (core::VictimDecision::evidence);
//         the apply phase re-checks the stamps under the shard locks and
//         drops — as kResolutionRejected, retried next pass — any
//         decision whose evidence moved between seal and apply.  A
//         validated decision's evidence is byte-identical live and
//         sealed, so the cycle it resolves exists at apply time: no
//         phantom victim is possible, and a persistent deadlock (which
//         cannot mutate: every member is blocked) validates on the next
//         pass at the latest.
//       - kStopTheWorld: the pass briefly stops the world (all shard
//         locks), drains the journals into the per-shard incremental
//         graph caches and detects in place.  The event stream recorded
//         under a pass is a true linearization suitable for replay
//         oracles, at the cost of pauses that grow with table size.
//
//     RunDetectionPass runs the same pass under kContinuous too, where it
//     is a safety net: inline resolution leaves no cycle behind.
//
// Robustness layer (optional, all off by default; see docs/ROBUSTNESS.md):
//
//   * lock-wait deadlines (microseconds): an expired waiter withdraws its
//     request with full queue-invariant maintenance and AcquireBlocking
//     returns kDeadlineExceeded; after `deadline.abort_after` expiries the
//     transaction is aborted server-side.  Deadline-armed (and
//     fault-injected) waits park in a polling loop, so they also survive
//     dropped wakeups.
//   * admission control: Begin is shed at `admission.max_inflight_txns`
//     live transactions, a blocking acquire at
//     `admission.queue_depth_watermark` blocked transactions in the
//     target shard — both with kResourceExhausted (kAdmissionReject
//     event), to be retried after backoff (AcquireWithRetry).
//   * graceful degradation: when a detection pass pauses the service
//     longer than `degradation.pause_budget_ns` — for kEpochDelta the
//     recorded pause is max(longest shard publish, apply critical
//     section); for kStopTheWorld it is the whole pass — the next
//     `degraded_passes` scheduled passes run a cheap timeout-resolver
//     sweep (abort transactions observed blocked for `sweep_patience`
//     consecutive sweeps) instead of full detection, with a kDegraded
//     event emitted when the engine degrades.
//   * deterministic fault injection: a robustness::FaultPlan addressed by
//     (txn, per-txn operation index) injects crash-txn and delay-grant
//     faults at AcquireBlocking entry, drop-wakeup at the notifier's
//     terminate broadcast, and stall-shard at the target shard's next
//     acquire.
//
// Lock ordering (deadlock-free by construction): shard mutexes in
// ascending shard index, then the transaction-table mutex, then the
// observability mutex.  Every bus emission happens under the
// observability mutex, so attaching a bus serializes the service's
// emission points — sinks see one totally ordered stream that is a true
// linearization of the lock-state history (the replay-parity stress suite
// depends on this).  Sink callbacks must not call back into the service.
// Neither may OnWaitEnd completions, which run under the same locks; a
// completion may take its owner's locks (the daemon takes its session
// mutex) as long as the owner never calls the service while holding them.
//
// Wait-span caveat: with several shards, wait-span ids are per-shard
// domains (each shard's LockManager numbers its own spans), so span values
// are not comparable with a single-manager run; kinds/tids/rids/counters
// are.

#ifndef TWBG_TXN_CONCURRENT_SERVICE_H_
#define TWBG_TXN_CONCURRENT_SERVICE_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/continuous_detector.h"
#include "core/periodic_detector.h"
#include "obs/span.h"
#include "obs/span_sinks.h"
#include "sched/period_controller.h"
#include "txn/epoch_snapshot.h"
#include "txn/robustness/robustness.h"
#include "txn/transaction_manager.h"

namespace twbg::txn {

/// How a periodic pass observes the sharded lock state (see the file
/// comment for the full protocol descriptions).
enum class SnapshotStrategy {
  /// Pauseless: per-shard O(delta) journal publish into a sealed epoch
  /// mirror, detection off to the side, stamp-validated change-list
  /// apply.  The default.
  kEpochDelta,
  /// Hold every shard mutex for the whole pass.  Larger pauses, but the
  /// recorded event stream is a true linearization (replay oracles).
  kStopTheWorld,
};

/// Configuration of a ConcurrentLockService (see Create).
struct ConcurrentServiceOptions {
  /// Lock-table partitions, in [1, 64].  Resources are hash-assigned to
  /// shards; more shards mean less mutex contention between independent
  /// acquires.  Must be 1 in kContinuous mode.
  size_t num_shards = 1;
  /// kContinuous resolves deadlocks inside the acquire that blocks (one
  /// shard); kPeriodic resolves them in periodic passes (see
  /// snapshot_strategy for how a pass observes the shards).
  DetectionMode detection_mode = DetectionMode::kContinuous;
  /// How a periodic pass snapshots the shards — the detector thread's
  /// pass, and RunDetectionPass under either detection mode.
  SnapshotStrategy snapshot_strategy = SnapshotStrategy::kEpochDelta;
  /// Period of the dedicated detector thread (kPeriodic only); zero means
  /// no thread — the caller drives RunDetectionPass itself.  With a
  /// non-fixed `scheduler` policy this is only the *initial* period; the
  /// controller retunes it after every full pass (see
  /// current_detection_period()).
  std::chrono::microseconds detection_period{0};
  /// Closed-loop scheduling of the detector thread (docs/TUNING.md).
  /// Units are MICROSECONDS (min_period/max_period bound the retuned
  /// period; pass costs are fed to the controller in µs too).  The default
  /// kFixedPeriod policy never moves the period — byte-identical to the
  /// pre-scheduler service, so adaptive scheduling is strictly opt-in.
  /// A non-fixed policy requires kPeriodic mode and detection_period > 0.
  sched::SchedulerOptions scheduler;
  /// Victim-cost metric, as in TransactionManagerOptions.
  CostPolicy cost_policy = CostPolicy::kLocksHeld;
  /// Detector tuning; `detector.event_bus` defaults to `event_bus`.
  core::DetectorOptions detector;
  /// Structured-event bus (not owned; may be null).  Attaching a bus
  /// serializes the service — see the file comment.
  obs::EventBus* event_bus = nullptr;
  /// Causal span tracer (not owned; may be null).  Attaching one
  /// serializes the service exactly like a bus: every span call happens
  /// under the observability mutex, satisfying the tracer's single-writer
  /// contract.  The service opens txn spans at Begin / Terminate, the
  /// shard lock managers open/close the wait spans, and each periodic
  /// pass emits a kPass span with kPublish / kApply / kResolution
  /// children (pauseless) — the periodic detector's own tracer stays unset
  /// because the pauseless walk runs off every service lock, and its
  /// resolution spans are minted when a decision validates.  The
  /// kContinuous detector runs inside the acquire, under the same mutex,
  /// and emits its own pass / step / resolution spans.  Required when
  /// scheduler.use_span_estimates is set.
  obs::SpanTracer* span_tracer = nullptr;
  /// Robustness knobs.  Deadline units are MICROSECONDS here (wall
  /// clock); `deadline.txn_budget` is not enforced by the service (it
  /// belongs to the discrete-time hosts).  All disabled by default.
  robustness::RobustnessOptions robustness;
  /// Deterministic faults to inject (empty = none).  See the file
  /// comment for how each FaultKind maps onto the service.
  robustness::FaultPlan fault_plan;
  /// Test hook (kEpochDelta only; may be null): runs on the pass thread
  /// after the epoch is sealed and detected but before the validated
  /// apply, with NO service lock held — so a test can race commits/aborts
  /// into the seal-to-apply window deterministically.
  std::function<void()> post_seal_hook;

  /// Rejects out-of-domain combinations — num_shards outside [1, 64],
  /// kContinuous combined with sharding or a detection period,
  /// scheduler.use_span_estimates without a span tracer, bad robustness
  /// knobs.
  Status Validate() const;
};

/// A read-only rendering of service state, served by RenderView.  The
/// text formats match core::ScriptRunner's corresponding commands, so a
/// script driven through a LockClient prints the same views as one driven
/// against a raw LockManager.
enum class ServiceView {
  /// The lock table (every shard; multi-shard tables are concatenated
  /// with `-- shard N --` headers).
  kTable,
  /// H/W-TWBG adjacency-list rendering (requires num_shards == 1).
  kGraph,
  /// H/W-TWBG in Graphviz dot syntax (requires num_shards == 1).
  kDot,
  /// Transaction Steps Table (requires num_shards == 1).
  kTst,
  /// Elementary cycles, one `cycle {...}` line each (num_shards == 1).
  kCycles,
  /// Reduction-oracle verdict: `deadlocked=... stuck={...}`
  /// (num_shards == 1).
  kOracle,
  /// Per-transaction abort costs, one `T<id>: <cost>` line each.
  kCosts,
};

/// Cumulative per-shard contention counters.
struct ShardStats {
  /// Lock attempts that found the shard mutex already held.
  uint64_t acquire_waits = 0;
  /// Operations routed to the shard (acquires, releases, passes).
  uint64_t ops = 0;
  /// Estimated total shard-mutex hold time, nanoseconds.  Passes,
  /// publishes and degraded sweeps are timed exactly.  A client critical
  /// section (an acquire's registration, a commit's or abort's release)
  /// is timed only when it brings `ops` to a multiple of 16, and that
  /// sample is charged 16 times: timing every one read the clock twice
  /// per acquire and three times per commit, a large share of the
  /// uncontended critical section it measured.
  uint64_t hold_ns = 0;
};

/// Thread-safe strict-2PL lock service with deadlock resolution.  See the
/// file comment for the two detection policies and the locking
/// discipline.
class ConcurrentLockService {
 public:
  /// Validates `options` (ConcurrentServiceOptions::Validate) and builds
  /// the service; invalid combinations are rejected with InvalidArgument
  /// rather than silently coerced.  The only way to construct a service.
  static Result<std::unique_ptr<ConcurrentLockService>> Create(
      ConcurrentServiceOptions options);

  ConcurrentLockService(const ConcurrentLockService&) = delete;
  ConcurrentLockService& operator=(const ConcurrentLockService&) = delete;

  /// Stops and joins the detector thread, if any.  No other thread may be
  /// inside a call when destruction begins.
  ~ConcurrentLockService();

  /// Starts a transaction.  kResourceExhausted when admission control
  /// sheds the Begin (retry after backoff).
  Result<lock::TransactionId> Begin();

  /// Acquires `mode` on `rid`, blocking the calling thread until granted.
  /// Canonical outcomes:
  ///   kOk                 granted;
  ///   kDeadlockVictim     chosen as deadlock victim — under kContinuous
  ///                       possibly inside this very call, by the cycle
  ///                       the request closed (locks gone; Begin a new
  ///                       transaction to retry);
  ///   kDeadlineExceeded   the configured lock-wait deadline expired; the
  ///                       request was withdrawn (transaction still alive
  ///                       and holding its other locks) — unless the
  ///                       abort-after-N policy escalated, in which case
  ///                       the message says so and the transaction is
  ///                       aborted;
  ///   kResourceExhausted  admission control shed the request.
  Status AcquireBlocking(lock::TransactionId tid, lock::ResourceId rid,
                         lock::LockMode mode);

  /// Non-blocking acquire: starts the request and returns its immediate
  /// outcome instead of parking the calling thread.
  ///   kGranted      lock held (under kContinuous, possibly granted by
  ///                 the resolution of the cycle this request closed);
  ///   kAlreadyHeld  `tid` already holds `mode` (or stronger) on `rid`;
  ///   kBlocked      queued; the transaction is kBlocked until a release
  ///                 or a resolution reactivates (or aborts) it —
  ///                 OnWaitEnd(tid, ...) is called back with the outcome
  ///                 (State(tid) shows it too: kActive granted, kAborted
  ///                 deadlock victim).
  /// A requester that continuous detection picked as the victim of the
  /// cycle it closed gets kDeadlockVictim, as from AcquireBlocking.
  /// Admission watermarks apply exactly as in AcquireBlocking
  /// (kResourceExhausted); lock-wait deadlines and fault injection do
  /// not (they are parked-waiter machinery).  This is the seam the
  /// network daemon serves requests through: one reactor thread can
  /// multiplex hundreds of blocked clients without one parked thread
  /// per waiter.
  Result<lock::RequestOutcome> AcquireAsync(lock::TransactionId tid,
                                            lock::ResourceId rid,
                                            lock::LockMode mode);

  /// The callback OnWaitEnd runs once with the status that ends a wait.
  using WaitCompletion = std::function<void(const Status&)>;

  /// One-shot wait-end completion: `done` receives what LockClient::Await
  /// reports for `tid` — kOk granted, kDeadlockVictim aborted,
  /// kFailedPrecondition committed, kNotFound unknown.  It runs at once,
  /// on this thread and with no service lock held, when `tid` is not
  /// blocked; otherwise exactly once, on the thread that ends the wait
  /// (a releasing Commit/Abort, a detection pass, a deadline), before that
  /// call returns and under the service's locks — so it must not call
  /// back into the service.  One transaction may carry several.
  void OnWaitEnd(lock::TransactionId tid, WaitCompletion done);

  /// Pins `tid`'s abort cost to `cost`: the value replaces the
  /// policy-computed cost and is no longer refreshed on subsequent
  /// operations, mirroring ScriptRunner's `cost` command.
  /// kFailedPrecondition for a terminated transaction; kNotFound for an
  /// unknown one.
  Status SetCost(lock::TransactionId tid, double cost);

  /// True when the current wait-for state contains a cycle (H/W-TWBG
  /// HasCycle over the live table).  Requires num_shards == 1 (always so
  /// under kContinuous); kFailedPrecondition otherwise — merged
  /// multi-shard graph construction is not implemented.
  Result<bool> HasDeadlock();

  /// Renders `view` of the current state (formats documented on
  /// ServiceView).  Graph-derived views require num_shards == 1;
  /// kTable / kCosts work for any configuration.  Stops the world for
  /// the duration — a diagnostics surface, never a hot path.
  Result<std::string> RenderView(ServiceView view);

  /// Live (kActive or kBlocked) transactions right now.
  size_t live_transactions() const;

  /// Commits and releases; wakes any waiter this unblocks.
  Status Commit(lock::TransactionId tid);

  /// Aborts voluntarily and releases; wakes any waiter this unblocks.
  Status Abort(lock::TransactionId tid);

  /// Snapshot of a transaction's state; kNotFound for tid 0 and any tid
  /// Begin has not issued.  Takes no lock: safe from any thread at any
  /// time, concurrent with every other call, and a tid's state only moves
  /// forward between calls (never from terminated back to live).
  Result<TxnState> State(lock::TransactionId tid) const;

  /// Number of deadlock victims so far (detector-chosen aborts only;
  /// deadline and sweep aborts are counted separately).
  size_t deadlock_victims() const;

  /// Runs one periodic detection-resolution pass now, on the calling
  /// thread, and returns its report: the same pass the detector thread
  /// runs — or, while degraded, the timeout-resolver sweep.  Under
  /// kContinuous it is a safety net that finds nothing, since inline
  /// resolution leaves no cycle behind.
  core::ResolutionReport RunDetectionPass();

  /// Number of completed periodic passes (the snapshot epoch).  Each pass
  /// observes — and leaves behind — a consistent cross-shard snapshot;
  /// the epoch stamps which one.  Inline continuous resolutions do not
  /// advance it.
  uint64_t snapshot_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Number of lock-table shards (1 in kContinuous mode).
  size_t num_shards() const { return shards_.size(); }

  /// Contention counters of shard `shard` (zeroes when out of range).
  ShardStats shard_stats(size_t shard) const;

  /// Client-visible pause of every completed *full* periodic pass,
  /// nanoseconds, in pass order.  For kEpochDelta this is max(longest
  /// shard publish, apply critical section); for kStopTheWorld it is the
  /// whole pass.  Degraded timeout-sweep passes are recorded separately
  /// in sweep_pause_times_ns().
  std::vector<uint64_t> pause_times_ns() const;

  /// Every individual shard publish pause, nanoseconds, in capture order
  /// (kEpochDelta passes only; num_shards entries per pass).
  std::vector<uint64_t> publish_pause_times_ns() const;

  /// Pause of every degraded timeout-sweep pass, nanoseconds, in pass
  /// order.
  std::vector<uint64_t> sweep_pause_times_ns() const;

  /// Seal-to-apply detection lag of every completed kEpochDelta pass,
  /// nanoseconds, in pass order: how stale the sealed epoch was when the
  /// validated change-list reached the live shards.
  std::vector<uint64_t> detection_lag_ns() const;

  /// Resolution commands dropped by stamp validation so far (kEpochDelta
  /// passes; each is retried by a later pass).
  uint64_t resolutions_rejected() const {
    return resolutions_rejected_.load(std::memory_order_relaxed);
  }

  // -- closed-loop scheduling telemetry --

  /// The detection period currently in effect, microseconds — the
  /// configured detection_period until the controller retunes it (always
  /// so under the default kFixedPeriod policy).  0 when no detector
  /// thread was configured.
  uint64_t current_detection_period_us() const {
    return current_period_us_.load(std::memory_order_acquire);
  }

  /// Period retunes the controller has applied so far (each also emitted
  /// as a kPeriodRetuned event when a bus is attached).
  uint64_t period_retunes() const {
    return period_retunes_.load(std::memory_order_relaxed);
  }

  // -- robustness telemetry --

  /// Lock waits cancelled by deadline so far.
  uint64_t deadline_expiries() const {
    return deadline_expiries_.load(std::memory_order_relaxed);
  }
  /// Transactions aborted by deadline escalation (abort-after-N).
  uint64_t deadline_aborts() const {
    return deadline_aborts_.load(std::memory_order_relaxed);
  }
  /// Begins/acquires shed by admission control.
  uint64_t admission_rejects() const {
    return admission_rejects_.load(std::memory_order_relaxed);
  }
  /// Transactions aborted by the degraded timeout-resolver sweep.
  uint64_t sweep_aborts() const {
    return sweep_aborts_.load(std::memory_order_relaxed);
  }
  /// Scheduled passes that still run the cheap sweep before full
  /// detection resumes (0 = not degraded).
  uint32_t degraded_passes_remaining() const {
    return degraded_remaining_.load(std::memory_order_relaxed);
  }
  /// The fault injector (fault counts), or nullptr when no plan was set.
  const robustness::FaultInjector* fault_injector() const {
    return injector_.get();
  }

  /// Verifies lock-table invariants (per shard), transaction-state /
  /// lock-manager agreement, and that no waiter leaked (every blocked
  /// table entry belongs to a live kBlocked transaction).  Stops the
  /// world for the duration.  `deep` as in LockManager::CheckInvariants.
  Status CheckInvariants(bool deep = true);

  /// Stop-the-world forensic dump: every shard's lock table plus every
  /// live transaction's state and wait target.  For diagnosing stalled
  /// workloads (e.g. a stuck benchmark cell); never on a hot path.
  std::string DebugDump();

  const ConcurrentServiceOptions& options() const { return options_; }

 private:
  // One lock-table partition.  The mutex guards the LockManager and the
  // contention counters; the condition variable parks waiters blocked on
  // this shard's resources.
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    lock::LockManager lm;
    uint64_t acquire_waits = 0;
    uint64_t ops = 0;
    uint64_t hold_ns = 0;
  };

  // Per-transaction record (guarded by txn_mu_; `state` is additionally
  // atomic because waiter wake predicates read it under the shard mutex
  // only, and State reads it with no lock).
  struct TxnRecord {
    std::atomic<TxnState> state{TxnState::kActive};
    uint64_t begin_ts = 0;
    uint64_t locks_granted = 0;
    uint64_t ops_executed = 0;
    bool deadlock_victim = false;
    // SetCost pinned this transaction's cost: RefreshCostLocked must not
    // overwrite it.
    bool cost_pinned = false;
    // Robustness bookkeeping: waits of this transaction cancelled by
    // deadline (abort-after-N policy), and consecutive degraded sweeps
    // that observed it blocked (timeout resolution; zero while it is
    // kActive).
    uint32_t deadline_expiries = 0;
    uint32_t blocked_sweeps = 0;
    // Bit s set => an operation of this transaction was routed to shard
    // s.  Never shrinks; commits/aborts lock exactly these shards (which
    // is why num_shards is capped at 64).
    uint64_t shard_mask = 0;
  };

  // Every transaction ever begun, indexed by tid - 1: Begin issues tids
  // densely from 1 and appends their records, so a lookup is an index.
  // Chunk c holds kFirstChunk << c records; its storage is allocated when
  // the first of them is issued and each record is constructed when its
  // tid is, so resident memory follows the tids issued.  Chunks never
  // move, so a record's address is fixed for the service's lifetime —
  // AcquireBlocking parks holding a TxnRecord* while other threads Begin.
  // Append runs under txn_mu_ and publishes the new length with release
  // order once the record is built, so a reader that loads size() may
  // index any record below it with no lock.  State reads `state` that
  // way; every other access holds txn_mu_.
  class TxnTable {
   public:
    TxnTable() = default;
    TxnTable(const TxnTable&) = delete;
    TxnTable& operator=(const TxnTable&) = delete;
    ~TxnTable();

    size_t size() const { return size_.load(std::memory_order_acquire); }
    // The record at `index`, which must be below size().
    TxnRecord& operator[](size_t index) const {
      const size_t slot = index + kFirstChunk;
      const int chunk = std::bit_width(slot) - 1 - kFirstChunkLog2;
      return chunks_[chunk][slot - (kFirstChunk << chunk)];
    }
    // Constructs the next record and publishes it (txn_mu_ held).
    TxnRecord& Append();

   private:
    static constexpr int kFirstChunkLog2 = 6;
    static constexpr size_t kFirstChunk = size_t{1} << kFirstChunkLog2;
    // Enough chunks for every 32-bit tid.
    static constexpr int kMaxChunks = 33 - kFirstChunkLog2;

    TxnRecord* chunks_[kMaxChunks] = {};
    std::atomic<size_t> size_{0};
  };

  // The shard mutexes of one multi-shard critical section, held as a
  // mask rather than a container, so taking them allocates nothing.
  // LockShards locks them ascending; Unlock or the destructor releases
  // them.
  class ShardLocks {
   public:
    ShardLocks(const ShardLocks&) = delete;
    ShardLocks& operator=(const ShardLocks&) = delete;
    ~ShardLocks() { Unlock(); }
    void Unlock();

   private:
    friend class ConcurrentLockService;
    ShardLocks(const ConcurrentLockService& service, uint64_t mask)
        : service_(service), mask_(mask) {}

    const ConcurrentLockService& service_;
    uint64_t mask_;
  };

  class PassHost;  // core::ShardedDetectionHost over the shard set

  // Client critical sections timed per shard (ShardStats::hold_ns): one
  // in kHoldSample, charged kHoldSample times.
  static constexpr uint64_t kHoldSample = 16;

  explicit ConcurrentLockService(ConcurrentServiceOptions options);

  size_t ShardIndex(lock::ResourceId rid) const;

  // `tid`'s record, or null for kInvalidTransaction and any tid Begin has
  // not issued yet.  txn_mu_ held.
  TxnRecord* FindTxnLocked(lock::TransactionId tid) {
    return tid == lock::kInvalidTransaction || tid > txns_.size()
               ? nullptr
               : &txns_[tid - 1];
  }
  const TxnRecord* FindTxnLocked(lock::TransactionId tid) const {
    return const_cast<ConcurrentLockService*>(this)->FindTxnLocked(tid);
  }

  // Locks `shard`, maintaining its contention counters.
  static std::unique_lock<std::mutex> LockShard(Shard& shard);

  // Locks every shard whose mask bit is set (bits past the last shard are
  // ignored), ascending, maintaining the contention counters.
  ShardLocks LockShards(uint64_t mask);

  // The acquire registration shared by AcquireBlocking and AcquireAsync.
  // Locks `rid`'s shard into `*sl` and returns with it held, so a blocked
  // caller can park without missing a wakeup; `*rec` receives the
  // transaction's record.  Times the critical section around
  // RegisterLocked when it is the shard's hold sample (kHoldSample).
  Result<lock::RequestOutcome> Register(lock::TransactionId tid,
                                        lock::ResourceId rid,
                                        lock::LockMode mode,
                                        std::unique_lock<std::mutex>* sl,
                                        TxnRecord** rec);
  // Registration body (shard mutex held): routing mask, admission
  // watermark, lock-manager request, state and cost updates — and, under
  // kContinuous, detection rooted at a requester that blocked, applied
  // before returning.  kBlocked means still queued after that; a
  // requester the resolution aborted gets kDeadlockVictim.
  Result<lock::RequestOutcome> RegisterLocked(lock::TransactionId tid,
                                              lock::ResourceId rid,
                                              lock::LockMode mode,
                                              size_t shard_index,
                                              TxnRecord** rec);

  // Commit / abort body: locks the transaction's shards, releases it and
  // wakes the waiters that release granted.
  Status Terminate(lock::TransactionId tid, bool commit);
  // The kStopTheWorld pass body: all shard locks for the whole pass.
  core::ResolutionReport RunStopTheWorldPass();
  // The kEpochDelta pass body: publish -> seal -> detect -> validated
  // apply.  Serialized by pass_mu_ (the shared epoch mirrors).
  core::ResolutionReport RunPauselessPass();
  // The degraded pass body: aborts transactions blocked for
  // `sweep_patience` consecutive sweeps, visiting only the blocked ones.
  // Same locks as the full pass.
  core::ResolutionReport RunTimeoutSweep();

  // Deadline-timeout body of AcquireBlocking: cancels tid's wait (or
  // reports the grant/abort that raced in).  Runs with the shard mutex
  // held; takes txn_mu_/obs_mu_ internally.  Sets `escalate` when the
  // abort-after-N policy fires (caller aborts after unlocking).
  Status CancelWait(lock::TransactionId tid, Shard& shard, bool* escalate);

  // Releases every lock/queue position of `tid` across the shards in
  // `mask` in global ascending-rid order, reactivating granted waiters'
  // records, and emits the single kLockRelease summary (iff some shard
  // knew the transaction — mirroring LockManager::ReleaseAll).  Requires
  // the masked shard mutexes, txn_mu_ and (when a bus is attached)
  // obs_mu_ to be held.  Returns the granted transactions in grant order.
  std::vector<lock::TransactionId> ReleaseAllShardsLocked(
      lock::TransactionId tid, uint64_t mask);

  // Ends an all-shard critical section (a pass or sweep): charges `hold`
  // to every shard, wakes every shard's waiters, releases `shard_locks`.
  void UnlockAllShards(ShardLocks& shard_locks, const common::Stopwatch& hold);

  // Records a full pass's client-visible pause; one over the pause
  // budget degrades the next scheduled passes to the timeout sweep.
  void RecordFullPassPause(uint64_t pause_ns);

  // Every state change of a record except the one into kBlocked: stores
  // `to`, counts a way out of kBlocked in blocked_txns_, and runs (and
  // drops) the OnWaitEnd completions registered on `tid`, which exist
  // only while it is blocked.  txn_mu_ held.
  void TransitionLocked(lock::TransactionId tid, TxnRecord& rec, TxnState to);

  // Applies a resolution under the locks that produced it (a pass's, or
  // a blocking acquire's): victims to kAborted (flagged, costs erased,
  // kTxnAbort a=1), granted waiters back to kActive.
  void ApplyReportLocked(const core::ResolutionReport& report);

  // Transitions granted waiters' records kBlocked -> kActive (txn_mu_
  // held).
  void ReactivateLocked(const std::vector<lock::TransactionId>& granted);

  // Emits one kShardContention per shard (pass locks held, bus active).
  void PublishShardStatsLocked();

  // Recomputes `tid`'s abort cost per the policy (txn_mu_ held).
  void RefreshCostLocked(lock::TransactionId tid, const TxnRecord& rec);

  // Emits `event` under obs_mu_ alone (no other service lock held).
  void EmitStandalone(obs::Event event);

  // True when a bus or a span tracer is attached: obs_mu_ must be held
  // around the shard lock managers' mutating calls (they emit on both).
  bool observed() const { return bus_ != nullptr || tracer_ != nullptr; }

  // Span-tracer twins of EmitStandalone: open/close a span under obs_mu_
  // alone (no other service lock held).  Return 0 / no-op when the tracer
  // is absent or inactive.
  uint64_t OpenSpanStandalone(obs::SpanKind kind, uint32_t track,
                              uint64_t parent);
  void CloseSpanStandalone(uint64_t id, uint64_t a, uint64_t b,
                           std::string label = {});

  // Feeds the period controller (if any) with a completed full pass and
  // applies/announces the retune it decides.  Called with no service
  // lock held.  `pass_ns` is the pass's detection cost (whole pass for
  // kStopTheWorld, publish+detect+apply for kEpochDelta).
  void UpdateSchedulerAfterPass(uint64_t pass_ns,
                                const core::ResolutionReport& report);

  // The degradation ladder's pause budget rescaled to the period
  // currently in effect: a retuned period moves the budget
  // proportionally, keeping the allowed pause *fraction* constant.
  // Identity when no controller is attached or the period never moved.
  uint64_t EffectivePauseBudgetNs() const;

  // Detector-thread body: run a pass every detection_period until told
  // to stop.
  void DetectorLoop();

  ConcurrentServiceOptions options_;

  std::vector<std::unique_ptr<Shard>> shards_;
  // The kContinuous policy: detection on block, run by RegisterLocked
  // under the one shard's mutex.  Null under kPeriodic.
  std::unique_ptr<core::ContinuousDetector> continuous_;

  // Transaction table; guards txns_ (but for State's lock-free reads),
  // wait_ends_, costs_, next_ts_, live_txns_, blocked_txns_ and
  // deadlock_victims_.  Acquired after any shard mutexes, before obs_mu_.
  mutable std::mutex txn_mu_;
  TxnTable txns_;
  // OnWaitEnd completions of blocked transactions.  A side table, not a
  // TxnRecord field: txns_ keeps a record for every transaction ever
  // begun, and few of them are ever awaited.
  std::unordered_map<lock::TransactionId, std::vector<WaitCompletion>>
      wait_ends_;
  core::CostTable costs_;
  uint64_t next_ts_ = 1;
  size_t live_txns_ = 0;
  // Records in kBlocked: RegisterLocked counts the way in, TransitionLocked
  // the ways out.  B of the period controller's T* (docs/TUNING.md).
  size_t blocked_txns_ = 0;
  size_t deadlock_victims_ = 0;

  // Serializes every emission on the shared bus and span tracer
  // (innermost lock; only taken when one of them is attached).
  std::mutex obs_mu_;
  obs::EventBus* bus_ = nullptr;
  obs::SpanTracer* tracer_ = nullptr;
  // Measured scheduler inputs (scheduler.use_span_estimates): subscribed
  // to tracer_, drained by UpdateSchedulerAfterPass under obs_mu_.
  std::unique_ptr<obs::SpanEstimator> estimator_;

  std::unique_ptr<core::PeriodicDetector> detector_;
  std::unique_ptr<PassHost> pass_host_;
  std::atomic<uint64_t> epoch_{0};

  // -- pauseless pass state (snapshot_strategy == kEpochDelta) --
  // Serializes pauseless passes: the epoch mirrors are shared detector
  // state.  Outermost — never acquired while holding any other service
  // lock.
  std::mutex pass_mu_;
  std::vector<ShardSnapshot> snapshots_;

  // -- robustness state --
  std::unique_ptr<robustness::FaultInjector> injector_;
  std::atomic<uint64_t> deadline_expiries_{0};
  std::atomic<uint64_t> deadline_aborts_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<uint64_t> sweep_aborts_{0};
  std::atomic<uint32_t> degraded_remaining_{0};
  std::atomic<uint64_t> resolutions_rejected_{0};

  mutable std::mutex stats_mu_;
  std::vector<uint64_t> pause_times_ns_;
  std::vector<uint64_t> publish_pause_times_ns_;
  std::vector<uint64_t> sweep_pause_times_ns_;
  std::vector<uint64_t> detection_lag_ns_;

  // -- closed-loop scheduling state --
  // Controller calls are serialized by sched_mu_ (taken with no other
  // service lock held); the current period is mirrored into an atomic so
  // the detector thread reads it lock-free.
  std::mutex sched_mu_;
  std::unique_ptr<sched::PeriodController> controller_;
  std::chrono::steady_clock::time_point last_pass_time_;
  bool sched_seen_pass_ = false;
  uint64_t base_period_us_ = 0;
  std::atomic<uint64_t> current_period_us_{0};
  std::atomic<uint64_t> period_retunes_{0};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread detector_thread_;
};

/// Client-side retry helper: calls AcquireBlocking, and on
/// kDeadlineExceeded / kResourceExhausted sleeps a decorrelated-jitter
/// backoff (robustness::RetryBackoff over `seed` — deterministic delays)
/// and retries.  When `retry.max_attempts` is exhausted the transaction
/// is aborted (the client-side abort-after-N policy) and the last error
/// is returned.  Other codes (kOk, kDeadlockVictim, misuse) return
/// immediately.  `attempts_out`, when non-null, receives the number of
/// AcquireBlocking calls made.
Status AcquireWithRetry(ConcurrentLockService& service,
                        lock::TransactionId tid, lock::ResourceId rid,
                        lock::LockMode mode,
                        const robustness::RetryOptions& retry, uint64_t seed,
                        uint32_t* attempts_out = nullptr);

}  // namespace twbg::txn

#endif  // TWBG_TXN_CONCURRENT_SERVICE_H_
