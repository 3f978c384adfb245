// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "txn/concurrent_service.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "core/detection_engine.h"
#include "core/oracle.h"
#include "core/tst.h"
#include "core/twbg.h"
#include "lock/resource_state.h"
#include "obs/sinks.h"

namespace twbg::txn {

namespace {

constexpr size_t kMaxShards = 64;  // shard_mask is a uint64_t bitmask

// Debug tripwire for the pauseless pass: nonzero while this thread runs
// the detached detect phase over the sealed mirrors, during which it must
// never touch live shard state (checked at the shard-locking entry
// points).  The publish handshake and the validated apply run outside the
// guard.
thread_local int t_in_sealed_detect = 0;

// Deadline-armed and fault-exposed waits poll at this granularity instead
// of relying on a wakeup, so they observe deadline expiry promptly and
// survive dropped notifications.
constexpr std::chrono::microseconds kWaitPoll{500};

ConcurrentServiceOptions NormalizeConcurrent(ConcurrentServiceOptions options) {
  if (options.detector.event_bus == nullptr) {
    options.detector.event_bus = options.event_bus;
  }
  return options;
}

obs::Event FaultEvent(const robustness::Fault& fault) {
  obs::Event event;
  event.kind = obs::EventKind::kFaultInjected;
  event.tid = fault.txn;
  if (fault.kind == robustness::FaultKind::kStallShard) {
    event.rid = static_cast<lock::ResourceId>(fault.shard);  // shard index
  }
  event.a = static_cast<uint64_t>(fault.kind);
  event.b = fault.at;
  event.value = static_cast<double>(fault.duration);
  event.detail = fault.ToString();
  return event;
}

// What a wait that ended in `state` (never kBlocked) reports to its
// waiter: AcquireBlocking, CancelWait and every OnWaitEnd completion.
Status WaitEndStatus(lock::TransactionId tid, TxnState state) {
  if (state == TxnState::kActive) return Status::OK();
  if (state == TxnState::kCommitted) {
    return Status::FailedPrecondition(
        common::Format("T%u is committed; nothing to await", tid));
  }
  return Status::DeadlockVictim(
      common::Format("T%u aborted as deadlock victim while waiting", tid));
}

}  // namespace

Status ConcurrentServiceOptions::Validate() const {
  if (num_shards < 1 || num_shards > kMaxShards) {
    return Status::InvalidArgument(common::Format(
        "num_shards must be in [1, %zu], got %zu", kMaxShards, num_shards));
  }
  if (detection_mode == DetectionMode::kContinuous) {
    // Continuous detection runs inside every acquire that blocks and
    // needs the whole lock state under one mutex; reject — rather than
    // silently ignore — options that only make sense for periodic passes
    // over several shards.
    if (num_shards != 1) {
      return Status::InvalidArgument(
          "continuous detection requires num_shards == 1 "
          "(use kPeriodic for a sharded service)");
    }
    if (detection_period.count() != 0) {
      return Status::InvalidArgument(
          "continuous detection has no detector thread; "
          "detection_period must be 0");
    }
    if (detection_threads != 0) {
      return Status::InvalidArgument(
          "continuous detection runs inline; detection_threads must be 0");
    }
  }
  Status sched_status = scheduler.Validate();
  if (!sched_status.ok()) return sched_status;
  if (scheduler.use_span_estimates && span_tracer == nullptr) {
    return Status::InvalidArgument(
        "scheduler.use_span_estimates requires span_tracer");
  }
  if (scheduler.policy != sched::SchedulerPolicy::kFixedPeriod) {
    // Closed-loop scheduling retunes the detector thread's wait; it is
    // meaningless without a detector thread to drive.
    if (detection_mode != DetectionMode::kPeriodic ||
        detection_period.count() <= 0) {
      return Status::InvalidArgument(
          "adaptive scheduling (scheduler.policy != kFixedPeriod) requires "
          "kPeriodic mode with detection_period > 0");
    }
  }
  return robustness.Validate();
}

// What the parallel pass sees of the shard set, and where its Step 3
// lands.  Every method runs with all shard mutexes, txn_mu_ and (when
// observing) obs_mu_ held by the pass, so plain cross-shard reads and
// serial mutations are safe.
class ConcurrentLockService::PassHost final
    : public core::ShardedDetectionHost {
 public:
  explicit PassHost(ConcurrentLockService& service) : service_(service) {}

  size_t num_shards() const override { return service_.shards_.size(); }
  const lock::LockTable& shard_table(size_t shard) const override {
    return service_.shards_[shard]->lm.table();
  }

  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return shard(rid).lm.table().Find(rid);
  }
  // A transaction can be known to several shards; only the shard of the
  // resource it is blocked on carries its wait info (blocked_on set).
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    const lock::TxnLockInfo* any = nullptr;
    for (const auto& s : service_.shards_) {
      const lock::TxnLockInfo* info = s->lm.Info(tid);
      if (info == nullptr) continue;
      if (info->blocked_on.has_value()) return info;
      if (any == nullptr) any = info;
    }
    return any;
  }
  Status ApplyTdr2Direct(lock::ResourceId rid,
                         lock::TransactionId junction) override {
    lock::ResourceState* state =
        shard(rid).lm.mutable_table().FindMutableDeferred(rid);
    if (state == nullptr) {
      return Status::NotFound(common::Format("R%u is not locked", rid));
    }
    return state->ApplyTdr2(junction);
  }
  void NoteTdr2Applied(lock::ResourceId rid) override {
    shard(rid).lm.mutable_table().NoteMutation(rid);
  }

  std::vector<lock::TransactionId> ReleaseAll(
      lock::TransactionId tid) override {
    const TxnRecord* rec = service_.FindTxnLocked(tid);
    const uint64_t mask = rec == nullptr ? ~uint64_t{0} : rec->shard_mask;
    return service_.ReleaseAllShardsLocked(tid, mask);
  }
  std::vector<lock::TransactionId> Reschedule(lock::ResourceId rid) override {
    return shard(rid).lm.Reschedule(rid);
  }

 private:
  Shard& shard(lock::ResourceId rid) const {
    return *service_.shards_[service_.ShardIndex(rid)];
  }

  ConcurrentLockService& service_;
};

Result<std::unique_ptr<ConcurrentLockService>> ConcurrentLockService::Create(
    ConcurrentServiceOptions options) {
  TWBG_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<ConcurrentLockService>(
      new ConcurrentLockService(std::move(options)));
}

ConcurrentLockService::ConcurrentLockService(ConcurrentServiceOptions options)
    : options_(NormalizeConcurrent(std::move(options))) {
  if (!options_.fault_plan.empty()) {
    injector_ = std::make_unique<robustness::FaultInjector>(options_.fault_plan);
  }
  bus_ = options_.event_bus;
  tracer_ = options_.span_tracer;
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->lm.set_event_bus(bus_);
    shards_.back()->lm.set_span_tracer(tracer_);
  }
  if (options_.detection_mode == DetectionMode::kContinuous) {
    // Detection on block runs inside the acquire, under the shard mutex
    // and obs_mu_, so the tracer's single-writer contract holds and the
    // detector emits its own pass / step / resolution spans.
    core::DetectorOptions continuous_options = options_.detector;
    if (continuous_options.span_tracer == nullptr) {
      continuous_options.span_tracer = tracer_;
    }
    continuous_ = std::make_unique<core::ContinuousDetector>(continuous_options);
  }
  if (options_.detection_threads > 0) {
    pool_ = std::make_unique<common::ThreadPool>(options_.detection_threads);
  }
  core::DetectorOptions detector_options = options_.detector;
  // The component-parallel walk runs on pool workers; span emission there
  // would break the tracer's single-writer contract, so the sharded
  // engine's detector never carries the tracer — the service emits the
  // pass / publish / apply / resolution spans itself, under obs_mu_.
  detector_options.span_tracer = nullptr;
  if (options_.snapshot_strategy == SnapshotStrategy::kEpochDelta) {
    // Pauseless resolutions are validated against the live shards before
    // they apply, so every decision must carry its evidence stamps.
    detector_options.capture_evidence = true;
    snapshots_.reserve(options_.num_shards);
    for (size_t s = 0; s < options_.num_shards; ++s) {
      snapshots_.emplace_back(shards_[s]->lm.table().policy());
    }
    snapshot_host_ = std::make_unique<SnapshotWalkHost>(
        snapshots_, [this](lock::ResourceId rid) { return ShardIndex(rid); });
  }
  detector_ = std::make_unique<core::ParallelPeriodicDetector>(
      detector_options, pool_.get());
  pass_host_ = std::make_unique<PassHost>(*this);
  if (options_.scheduler.use_span_estimates) {
    // Validate() guarantees tracer_ is set with the flag on.
    estimator_ = std::make_unique<obs::SpanEstimator>();
    tracer_->Subscribe(estimator_.get());
    std::scoped_lock ol(obs_mu_);
    estimator_->Reset(tracer_->now());
  }
  if (options_.detection_period.count() > 0) {
    const uint64_t initial_us =
        static_cast<uint64_t>(options_.detection_period.count());
    controller_ = sched::MakePeriodController(options_.scheduler, initial_us);
    base_period_us_ = initial_us;
    current_period_us_.store(initial_us, std::memory_order_release);
    detector_thread_ = std::thread(&ConcurrentLockService::DetectorLoop, this);
  }
}

ConcurrentLockService::~ConcurrentLockService() {
  if (detector_thread_.joinable()) {
    {
      std::scoped_lock lk(stop_mu_);
      stopping_ = true;
    }
    stop_cv_.notify_all();
    detector_thread_.join();
  }
  if (estimator_ != nullptr) tracer_->Unsubscribe(estimator_.get());
}

size_t ConcurrentLockService::ShardIndex(lock::ResourceId rid) const {
  // Fibonacci hashing spreads dense rid ranges across shards.
  const uint64_t h = static_cast<uint64_t>(rid) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>((h >> 32) % shards_.size());
}

std::unique_lock<std::mutex> ConcurrentLockService::LockShard(Shard& shard) {
  std::unique_lock<std::mutex> sl(shard.mu, std::try_to_lock);
  const bool contended = !sl.owns_lock();
  if (contended) sl.lock();
  shard.ops++;
  if (contended) shard.acquire_waits++;
  return sl;
}

std::vector<std::unique_lock<std::mutex>> ConcurrentLockService::LockShards(
    uint64_t mask, common::Stopwatch& hold) {
  TWBG_DCHECK(t_in_sealed_detect == 0);
  std::vector<std::unique_lock<std::mutex>> locks;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    locks.push_back(LockShard(*shards_[s]));
  }
  hold.Reset();
  return locks;
}

void ConcurrentLockService::EmitStandalone(obs::Event event) {
  if (bus_ == nullptr) return;
  std::scoped_lock ol(obs_mu_);
  if (bus_->active()) bus_->Emit(event);
}

uint64_t ConcurrentLockService::OpenSpanStandalone(obs::SpanKind kind,
                                                   uint32_t track,
                                                   uint64_t parent) {
  if (tracer_ == nullptr) return 0;
  std::scoped_lock ol(obs_mu_);
  if (!tracer_->active()) return 0;
  return tracer_->Open(kind, track, parent);
}

void ConcurrentLockService::CloseSpanStandalone(uint64_t id, uint64_t a,
                                                uint64_t b,
                                                std::string label) {
  if (id == 0 || tracer_ == nullptr) return;
  std::scoped_lock ol(obs_mu_);
  tracer_->Close(id, a, b, std::move(label));
}

Result<lock::TransactionId> ConcurrentLockService::Begin() {
  std::scoped_lock tl(txn_mu_);
  const robustness::AdmissionOptions& adm = options_.robustness.admission;
  if (adm.max_inflight_txns != 0) {
    robustness::AdmissionContext ctx;
    ctx.inflight_txns = live_txns_;
    Status admitted = robustness::WatermarkAdmission(adm).AdmitBegin(ctx);
    if (!admitted.ok()) {
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      if (bus_ != nullptr) {
        std::scoped_lock ol(obs_mu_);
        if (bus_->active()) {
          obs::Event event;
          event.kind = obs::EventKind::kAdmissionReject;
          event.a = live_txns_;
          event.b = adm.max_inflight_txns;
          bus_->Emit(event);
        }
      }
      return admitted;
    }
  }
  TxnRecord& rec = txns_.emplace_back();
  const auto tid = static_cast<lock::TransactionId>(txns_.size());
  rec.begin_ts = next_ts_++;
  ++live_txns_;
  RefreshCostLocked(tid, rec);
  if (observed()) {
    std::scoped_lock ol(obs_mu_);
    if (obs::Enabled(bus_)) {
      obs::Event event;
      event.kind = obs::EventKind::kTxnBegin;
      event.tid = tid;
      bus_->Emit(event);
    }
    if (obs::Tracing(tracer_)) tracer_->OpenTxn(tid, "client");
  }
  return tid;
}

Status ConcurrentLockService::AcquireBlocking(lock::TransactionId tid,
                                              lock::ResourceId rid,
                                              lock::LockMode mode) {
  const size_t shard_index = ShardIndex(rid);
  Shard& shard = *shards_[shard_index];

  uint64_t grant_delay_us = 0;
  if (injector_ != nullptr) {
    // Fire acquire-addressed faults before taking any shard mutex: the
    // crash path re-enters Terminate, which locks shards itself (lock
    // order forbids doing that while one is held).
    std::optional<robustness::Fault> fault;
    {
      std::scoped_lock tl(txn_mu_);
      const TxnRecord* rec = FindTxnLocked(tid);
      if (rec != nullptr &&
          rec->state.load(std::memory_order_relaxed) == TxnState::kActive) {
        fault = injector_->TakeAcquireFault(tid, rec->ops_executed);
      }
    }
    if (fault.has_value()) {
      EmitStandalone(FaultEvent(*fault));
      if (fault->kind == robustness::FaultKind::kCrashTxn) {
        Status aborted = Terminate(tid, /*commit=*/false);
        if (!aborted.ok()) return aborted;
        return Status::Aborted(
            common::Format("T%u crashed by injected fault", tid));
      }
      grant_delay_us = fault->duration;
    }
    if (std::optional<robustness::Fault> stall =
            injector_->TakeShardStall(static_cast<uint32_t>(shard_index))) {
      EmitStandalone(FaultEvent(*stall));
      // Hold the shard mutex through the stall: every operation routed
      // here piles up behind it, exactly an unresponsive partition.
      std::scoped_lock stall_lock(shard.mu);
      std::this_thread::sleep_for(std::chrono::microseconds(stall->duration));
    }
  }

  std::unique_lock<std::mutex> sl;
  TxnRecord* rec = nullptr;
  Result<lock::RequestOutcome> outcome = Register(tid, rid, mode, &sl, &rec);
  if (!outcome.ok()) return outcome.status();
  if (*outcome == lock::RequestOutcome::kBlocked) {
    // Park on the shard of the resource we are blocked on.  We have held
    // shard.mu continuously since the lock manager queued us, and anyone
    // who grants or aborts us does so while holding this same mutex (the
    // rid is in our shard_mask and in the granter's release set; the
    // detector holds every shard) — so the state change cannot slip in
    // between our predicate check and the park, and no wakeup is missed.
    const auto unblocked = [rec] {
      return rec->state.load(std::memory_order_relaxed) != TxnState::kBlocked;
    };
    const uint64_t deadline_us = options_.robustness.deadline.lock_wait;
    if (deadline_us == 0 && injector_ == nullptr) {
      shard.cv.wait(sl, unblocked);
    } else {
      // Deadline-armed / fault-exposed waits poll: a deadline must be
      // noticed without anyone waking us, and a dropped wakeup must not
      // strand us.
      const auto expiry = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(deadline_us);
      while (!unblocked()) {
        if (deadline_us != 0 && std::chrono::steady_clock::now() >= expiry) {
          bool escalate = false;
          Status expired = CancelWait(tid, shard, &escalate);
          if (expired.ok()) break;  // a grant raced in: single resolution
          sl.unlock();
          shard.cv.notify_all();  // waiters granted by the withdrawal
          if (escalate) {
            Status aborted = Terminate(tid, /*commit=*/false);
            TWBG_CHECK(aborted.ok());
          }
          return expired;
        }
        shard.cv.wait_for(sl, kWaitPoll);
      }
    }
    Status ended =
        WaitEndStatus(tid, rec->state.load(std::memory_order_relaxed));
    if (!ended.ok()) return ended;
  }
  sl.unlock();
  if (grant_delay_us != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(grant_delay_us));
  }
  return Status::OK();
}

Result<lock::RequestOutcome> ConcurrentLockService::AcquireAsync(
    lock::TransactionId tid, lock::ResourceId rid, lock::LockMode mode) {
  // No thread parks here: whoever ends a kBlocked wait runs the
  // transaction's OnWaitEnd completions.
  std::unique_lock<std::mutex> sl;
  TxnRecord* rec = nullptr;
  return Register(tid, rid, mode, &sl, &rec);
}

void ConcurrentLockService::OnWaitEnd(lock::TransactionId tid,
                                      WaitCompletion done) {
  std::unique_lock<std::mutex> tl(txn_mu_);
  const TxnRecord* rec = FindTxnLocked(tid);
  if (rec == nullptr) {
    tl.unlock();
    done(Status::NotFound(common::Format("unknown transaction T%u", tid)));
    return;
  }
  // Every way out of kBlocked holds txn_mu_ (TransitionLocked), so the
  // wait cannot end between this check and the registration.
  const TxnState state = rec->state.load(std::memory_order_relaxed);
  if (state == TxnState::kBlocked) {
    wait_ends_[tid].push_back(std::move(done));
    return;
  }
  tl.unlock();
  done(WaitEndStatus(tid, state));
}

Result<lock::RequestOutcome> ConcurrentLockService::Register(
    lock::TransactionId tid, lock::ResourceId rid, lock::LockMode mode,
    std::unique_lock<std::mutex>* sl, TxnRecord** rec) {
  TWBG_DCHECK(t_in_sealed_detect == 0);
  const size_t shard_index = ShardIndex(rid);
  Shard& shard = *shards_[shard_index];
  *sl = LockShard(shard);
  common::Stopwatch hold;
  Result<lock::RequestOutcome> outcome =
      RegisterLocked(tid, rid, mode, shard_index, rec);
  shard.hold_ns += static_cast<uint64_t>(hold.ElapsedNanos());
  return outcome;
}

Result<lock::RequestOutcome> ConcurrentLockService::RegisterLocked(
    lock::TransactionId tid, lock::ResourceId rid, lock::LockMode mode,
    size_t shard_index, TxnRecord** rec_out) {
  Shard& shard = *shards_[shard_index];
  std::scoped_lock tl(txn_mu_);
  TxnRecord* rec = FindTxnLocked(tid);
  if (rec == nullptr) {
    return Status::NotFound(common::Format("unknown transaction T%u", tid));
  }
  *rec_out = rec;
  const TxnState state = rec->state.load(std::memory_order_relaxed);
  if (state != TxnState::kActive) {
    return Status::FailedPrecondition(
        common::Format("T%u is %s and cannot request locks", tid,
                       std::string(ToString(state)).c_str()));
  }
  // Record the routing before the request: commits/aborts must lock this
  // shard even if the request errors after registering the txn.
  rec->shard_mask |= uint64_t{1} << shard_index;
  // Backpressure: shed requests that would deepen an already saturated
  // shard.  Holders are exempt — a conversion must be allowed through or
  // the holder could never finish and drain the queue.
  const uint64_t watermark = options_.robustness.admission.queue_depth_watermark;
  if (watermark != 0) {
    const lock::ResourceState* res = shard.lm.table().Find(rid);
    const bool holder = res != nullptr && res->FindHolder(tid) != nullptr;
    if (!holder) {
      robustness::AdmissionContext ctx;
      ctx.inflight_txns = live_txns_;
      ctx.queue_depth = shard.lm.NumBlocked();
      Status admitted =
          robustness::WatermarkAdmission(options_.robustness.admission)
              .AdmitAcquire(ctx);
      if (!admitted.ok()) {
        admission_rejects_.fetch_add(1, std::memory_order_relaxed);
        if (bus_ != nullptr) {
          std::scoped_lock ol(obs_mu_);
          if (bus_->active()) {
            obs::Event event;
            event.kind = obs::EventKind::kAdmissionReject;
            event.tid = tid;
            event.rid = rid;
            event.a = ctx.queue_depth;
            event.b = watermark;
            bus_->Emit(event);
          }
        }
        return admitted;
      }
    }
  }
  std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
  if (observed()) ol.lock();
  Result<lock::RequestOutcome> result = shard.lm.Acquire(tid, rid, mode);
  if (!result.ok()) return result.status();
  rec->ops_executed++;
  RefreshCostLocked(tid, *rec);
  switch (*result) {
    case lock::RequestOutcome::kGranted:
      rec->locks_granted++;
      RefreshCostLocked(tid, *rec);
      return result;
    case lock::RequestOutcome::kAlreadyHeld:
      return result;
    case lock::RequestOutcome::kBlocked:
      break;
  }
  rec->state.store(TxnState::kBlocked, std::memory_order_relaxed);
  ++blocked_txns_;
  if (continuous_ == nullptr) return result;
  // Continuous detection: every edge this block created leaves `tid`, so
  // any cycle it closed passes through it and a walk rooted there finds
  // it.  The one shard holds the whole wait-for state.
  const core::ResolutionReport report =
      continuous_->OnBlock(shard.lm, costs_, tid);
  ApplyReportLocked(report);
  if (!report.aborted.empty() || !report.granted.empty()) {
    shard.cv.notify_all();  // parked waiters the resolution settled
  }
  switch (rec->state.load(std::memory_order_relaxed)) {
    case TxnState::kAborted:
      return Status::DeadlockVictim(common::Format(
          "T%u closed a deadlock cycle and was aborted", tid));
    case TxnState::kActive:
      return lock::RequestOutcome::kGranted;  // the resolution granted it
    default:
      return result;
  }
}

Status ConcurrentLockService::SetCost(lock::TransactionId tid, double cost) {
  std::scoped_lock tl(txn_mu_);
  TxnRecord* rec = FindTxnLocked(tid);
  if (rec == nullptr) {
    return Status::NotFound(common::Format("unknown transaction T%u", tid));
  }
  const TxnState state = rec->state.load(std::memory_order_relaxed);
  if (state == TxnState::kCommitted || state == TxnState::kAborted) {
    return Status::FailedPrecondition(common::Format(
        "T%u is %s; cannot set the cost of a terminated transaction", tid,
        std::string(ToString(state)).c_str()));
  }
  rec->cost_pinned = true;
  costs_.Set(tid, cost);
  return Status::OK();
}

Status ConcurrentLockService::CancelWait(lock::TransactionId tid,
                                         Shard& shard, bool* escalate) {
  *escalate = false;
  std::scoped_lock tl(txn_mu_);
  TxnRecord* found = FindTxnLocked(tid);
  TWBG_CHECK(found != nullptr);
  TxnRecord& rec = *found;
  const TxnState state = rec.state.load(std::memory_order_relaxed);
  // The shard mutex has been held since the deadline check, and every
  // resolver (terminating releasers, passes, continuous resolutions)
  // changes waiter states only while holding it — whichever of {grant,
  // abort, expiry} we observe first under txn_mu_ is the wait's single
  // resolution.
  if (state != TxnState::kBlocked) return WaitEndStatus(tid, state);
  std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
  if (observed()) ol.lock();
  const lock::TxnLockInfo* info = shard.lm.Info(tid);
  TWBG_CHECK(info != nullptr && info->blocked_on.has_value());
  const lock::ResourceId wait_rid = *info->blocked_on;
  const lock::LockMode wait_mode = info->blocked_mode;
  const uint64_t span = info->wait_span;
  Result<std::vector<lock::TransactionId>> granted = shard.lm.CancelWait(tid);
  TWBG_CHECK(granted.ok());
  TransitionLocked(tid, rec, TxnState::kActive);
  rec.deadline_expiries++;
  rec.blocked_sweeps = 0;
  deadline_expiries_.fetch_add(1, std::memory_order_relaxed);
  ReactivateLocked(*granted);
  const uint32_t abort_after = options_.robustness.deadline.abort_after;
  *escalate = abort_after != 0 && rec.deadline_expiries >= abort_after;
  if (*escalate) deadline_aborts_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled(bus_)) {
    obs::Event event;
    event.kind = obs::EventKind::kDeadlineExpired;
    event.tid = tid;
    event.rid = wait_rid;
    event.mode = wait_mode;
    event.span = span;
    event.a = rec.deadline_expiries;
    event.b = *escalate ? 1 : 0;
    bus_->Emit(event);
  }
  if (*escalate) {
    return Status::DeadlineExceeded(common::Format(
        "T%u wait on R%u exceeded its deadline; aborted after %u expired "
        "waits",
        tid, wait_rid, rec.deadline_expiries));
  }
  return Status::DeadlineExceeded(common::Format(
      "T%u wait on R%u exceeded its deadline", tid, wait_rid));
}

Status ConcurrentLockService::Commit(lock::TransactionId tid) {
  return Terminate(tid, /*commit=*/true);
}

Status ConcurrentLockService::Abort(lock::TransactionId tid) {
  return Terminate(tid, /*commit=*/false);
}

Status ConcurrentLockService::Terminate(lock::TransactionId tid, bool commit) {
  // Lock ordering requires the shard mutexes before txn_mu_, so peek at
  // the mask first.  Only this transaction's own thread grows it, and
  // the protocol forbids concurrent operations on one transaction, so
  // the mask is stable; the state is re-validated under the full locks
  // (a detection pass may abort the transaction in between).
  uint64_t mask = 0;
  {
    std::scoped_lock tl(txn_mu_);
    const TxnRecord* rec = FindTxnLocked(tid);
    if (rec == nullptr) {
      return Status::NotFound(common::Format("unknown transaction T%u", tid));
    }
    mask = rec->shard_mask;
  }

  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(mask, hold);
  {
    std::scoped_lock tl(txn_mu_);
    // Records are never removed: the peek above found this one.
    TxnRecord& rec = *FindTxnLocked(tid);
    const TxnState state = rec.state.load(std::memory_order_relaxed);
    if (commit && state != TxnState::kActive) {
      return Status::FailedPrecondition(
          common::Format("T%u is %s and cannot commit", tid,
                         std::string(ToString(state)).c_str()));
    }
    if (!commit &&
        (state == TxnState::kCommitted || state == TxnState::kAborted)) {
      return Status::FailedPrecondition(
          common::Format("T%u is already %s", tid,
                         std::string(ToString(state)).c_str()));
    }
    std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
    if (observed()) ol.lock();
    TransitionLocked(tid, rec,
                     commit ? TxnState::kCommitted : TxnState::kAborted);
    --live_txns_;
    if (obs::Enabled(bus_)) {
      obs::Event event;
      event.kind =
          commit ? obs::EventKind::kTxnCommit : obs::EventKind::kTxnAbort;
      event.tid = tid;
      event.a = 0;  // kTxnAbort: voluntary, not a deadlock victim
      bus_->Emit(event);
    }
    if (obs::Tracing(tracer_)) tracer_->CloseTxn(tid, /*aborted=*/!commit);
    costs_.Erase(tid);
    ReactivateLocked(ReleaseAllShardsLocked(tid, mask));
  }
  // A planned drop-wakeup fault swallows this termination's broadcast;
  // the waiters it would have woken recover via their polling waits.
  const bool drop = injector_ != nullptr && injector_->TakeDropWakeup(tid);
  if (drop) {
    robustness::Fault fault;
    fault.kind = robustness::FaultKind::kDropWakeup;
    fault.txn = tid;
    EmitStandalone(FaultEvent(fault));
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if ((mask & (uint64_t{1} << s)) == 0) continue;
      shards_[s]->cv.notify_all();
    }
  }
  // Attribute the critical section to every shard held through it (all
  // were held for its whole duration; the locks are still owned here).
  const uint64_t hold_ns = static_cast<uint64_t>(hold.ElapsedNanos());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    shards_[s]->hold_ns += hold_ns;
  }
  shard_locks.clear();
  return Status::OK();
}

std::vector<lock::TransactionId> ConcurrentLockService::ReleaseAllShardsLocked(
    lock::TransactionId tid, uint64_t mask) {
  // Union of the transaction's touched resources across its shards,
  // released in global ascending-rid order — the exact order a single
  // lock manager's ReleaseAll would use, so the kLockWakeup stream (and
  // hence the recorded linearization) matches the sequential engine.
  std::vector<lock::ResourceId> rids;
  bool known = false;
  bool was_blocked = false;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    const lock::TxnLockInfo* info = shards_[s]->lm.Info(tid);
    if (info == nullptr) continue;
    known = true;
    was_blocked |= info->blocked_on.has_value();
    rids.insert(rids.end(), info->touched.begin(), info->touched.end());
  }
  if (!known) return {};  // mirror ReleaseAll: unknown tid emits nothing
  // The per-rid ReleaseOn path closes only the *granted* waiters' spans
  // (NoteGranted); the released transaction's own pending wait ends here,
  // the way LockManager::ReleaseAll would end it.
  if (was_blocked && obs::Tracing(tracer_)) {
    tracer_->CloseWait(tid, obs::WaitOutcome::kAborted);
  }
  std::sort(rids.begin(), rids.end());

  std::vector<lock::TransactionId> granted;
  for (lock::ResourceId rid : rids) {
    Shard& shard = *shards_[ShardIndex(rid)];
    const std::vector<lock::TransactionId> g = shard.lm.ReleaseOn(tid, rid);
    granted.insert(granted.end(), g.begin(), g.end());
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    shards_[s]->lm.Forget(tid);
  }
  if (obs::Enabled(bus_)) {
    // The one release summary, same shape as LockManager::ReleaseAll.
    obs::Event event;
    event.kind = obs::EventKind::kLockRelease;
    event.tid = tid;
    event.a = rids.size();
    event.b = granted.size();
    bus_->Emit(event);
  }
  return granted;
}

core::ResolutionReport ConcurrentLockService::RunDetectionPass() {
  if (degraded_remaining_.load(std::memory_order_relaxed) > 0) {
    return RunTimeoutSweep();
  }
  if (options_.snapshot_strategy == SnapshotStrategy::kStopTheWorld) {
    return RunStopTheWorldPass();
  }
  return RunPauselessPass();
}

core::ResolutionReport ConcurrentLockService::RunStopTheWorldPass() {
  // Stop the world: all shard locks (ascending), the transaction table,
  // then the bus.  Everything the pass reads is a consistent cross-shard
  // snapshot; everything it mutates and emits lands atomically between
  // two application operations, which is what makes the recorded event
  // stream replayable against the sequential engine.
  common::Stopwatch pause;
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  core::ResolutionReport report;
  {
    std::scoped_lock tl(txn_mu_);
    std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
    if (observed()) ol.lock();
    const uint64_t pass_span =
        obs::Tracing(tracer_) ? tracer_->Open(obs::SpanKind::kPass) : 0;
    report = detector_->RunPass(*pass_host_, costs_);
    ApplyReportLocked(report);
    if (obs::Enabled(bus_)) PublishShardStatsLocked();
    if (pass_span != 0) {
      // Pass-span close contract: a = cycles resolved, b = cost ns.
      tracer_->Close(pass_span, report.cycles_detected,
                     static_cast<uint64_t>(pause.ElapsedNanos()));
    }
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  const uint64_t pause_ns = static_cast<uint64_t>(pause.ElapsedNanos());
  UnlockAllShards(shard_locks, hold);
  RecordFullPassPause(pause_ns);
  UpdateSchedulerAfterPass(pause_ns, report);
  return report;
}

core::ResolutionReport ConcurrentLockService::RunPauselessPass() {
  // The epoch mirrors are shared detector state: one pauseless pass at a
  // time.  pass_mu_ is outermost — nothing below takes it, and it is
  // never acquired while any other service lock is held.
  std::scoped_lock pass_lock(pass_mu_);
  common::Stopwatch pass_clock;
  const uint64_t sealing_epoch = epoch_.load(std::memory_order_acquire) + 1;
  const uint64_t pass_span = OpenSpanStandalone(obs::SpanKind::kPass, 0, 0);

  // Phase 1 — publish: capture each shard's journal delta under its own
  // mutex (the only pause a client ever observes, O(delta)), then fold it
  // into the mirror outside the lock.
  uint64_t max_publish_ns = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    ShardCaptureStats capture;
    uint64_t publish_ns = 0;
    const uint64_t publish_span = OpenSpanStandalone(
        obs::SpanKind::kPublish, static_cast<uint32_t>(s), pass_span);
    {
      std::unique_lock<std::mutex> sl = LockShard(shard);
      common::Stopwatch publish;
      capture = snapshots_[s].Capture(shard.lm);
      publish_ns = static_cast<uint64_t>(publish.ElapsedNanos());
      shard.hold_ns += publish_ns;
    }
    snapshots_[s].Fold();
    // Publish-span counters: a = resources staged, b = the
    // client-visible publish pause in nanoseconds (the span's duration
    // also covers the fold, which runs off the shard lock).
    CloseSpanStandalone(publish_span, capture.dirty, publish_ns);
    max_publish_ns = std::max(max_publish_ns, publish_ns);
    {
      std::scoped_lock stl(stats_mu_);
      publish_pause_times_ns_.push_back(publish_ns);
    }
    obs::Event event;
    event.kind = obs::EventKind::kSnapshotPublish;
    event.rid = static_cast<lock::ResourceId>(s);  // shard index
    event.a = capture.dirty;
    event.b = capture.full_sweep ? 1 : 0;
    event.span = sealing_epoch;
    event.value = static_cast<double>(publish_ns);
    EmitStandalone(std::move(event));
  }
  common::Stopwatch seal_clock;  // measures the seal-to-apply lag

  // The walk decides victims on a cost snapshot; the validated apply
  // replays the TDR-2 ST bumps onto the live table.
  core::CostTable costs_copy;
  {
    std::scoped_lock tl(txn_mu_);
    costs_copy = costs_;
  }

  // Phase 2 — detect, lock-free over the sealed mirrors while client
  // traffic proceeds on the live shards.  Events are recorded on a local
  // bus; the apply phase replays the validated subset into the shared
  // stream so sinks never see resolutions that were later rejected.
  std::vector<const lock::LockTable*> tables;
  tables.reserve(snapshots_.size());
  for (const ShardSnapshot& snapshot : snapshots_) {
    tables.push_back(&snapshot.table());
  }
  obs::EventBus local_bus;
  obs::CollectorSink recorder;
  bool observing = false;
  if (bus_ != nullptr) {
    std::scoped_lock ol(obs_mu_);
    observing = bus_->active();
    local_bus.set_time(bus_->time());
  }
  if (observing) local_bus.Subscribe(&recorder);
  common::Stopwatch detect_clock;
  core::ParallelPeriodicDetector::DetectOutcome detect;
  {
    ++t_in_sealed_detect;
    detect = detector_->RunDetect(tables, *snapshot_host_, costs_copy,
                                  observing ? &local_bus : nullptr,
                                  detect_clock);
    --t_in_sealed_detect;
  }
  if (options_.post_seal_hook) options_.post_seal_hook();

  // Segment the recorded stream — [kPassStart, kStep1, one segment per
  // decision ([kUprReposition?] kCycleResolved [kCyclePostMortem?]),
  // kStep2] — so each decision's events replay exactly when the decision
  // validates.
  std::vector<core::VictimDecision>& decisions = detect.walk.decisions;
  const std::deque<obs::Event>& recorded = recorder.events();
  std::vector<std::pair<size_t, size_t>> segments;
  if (observing) {
    segments.reserve(decisions.size());
    size_t pos = 2;  // past kPassStart, kStep1
    for (size_t i = 0; i < decisions.size(); ++i) {
      const size_t begin = pos;
      while (recorded[pos].kind != obs::EventKind::kCycleResolved) ++pos;
      ++pos;
      if (pos < recorded.size() &&
          recorded[pos].kind == obs::EventKind::kCyclePostMortem) {
        ++pos;
      }
      segments.emplace_back(begin, pos);
    }
  }

  // Phase 3 — validated apply: under the full pass locks, re-check every
  // decision's evidence stamps against the live shards.  A match means
  // the sealed state it was derived from IS the live state now (equal
  // versions guarantee identical content), so the cycle exists at this
  // instant and the resolution is sound; a mismatch means the evidence
  // moved between seal and apply, and the decision is dropped — the
  // cycle, if it persists, cannot mutate further (every member is
  // blocked) and re-derives cleanly next pass.
  common::Stopwatch apply_pause;
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  const uint64_t lag_ns = static_cast<uint64_t>(seal_clock.ElapsedNanos());
  core::ResolutionReport report;
  {
    std::scoped_lock tl(txn_mu_);
    std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
    if (observed()) ol.lock();
    const bool live_obs = observing && obs::Enabled(bus_);
    const uint64_t apply_span =
        obs::Tracing(tracer_)
            ? tracer_->Open(obs::SpanKind::kApply, 0, pass_span)
            : 0;
    const auto replay = [&](size_t index) { bus_->Emit(recorded[index]); };
    if (live_obs) {
      replay(0);  // kPassStart
      replay(1);  // kStep1
    }

    // A TDR-2 replay gives the live resource a fresh version stamp (the
    // stamp domain is process-wide), while later decisions in the same
    // component derived their evidence from the mirror's post-apply
    // stamp.  The overlay maps each repositioned resource to (the mirror
    // stamp later evidence should cite, the live stamp our replay
    // produced) so chained decisions validate.
    std::map<lock::ResourceId, std::pair<uint64_t, uint64_t>> overlay;
    // Step 3's input: the walk outcome restricted to the validated
    // decisions, in walk order, with the walk's change-list dedup.
    core::WalkOutcome validated;
    validated.cycles = detect.walk.cycles;
    validated.steps = detect.walk.steps;
    size_t rejected = 0;
    for (size_t i = 0; i < decisions.size(); ++i) {
      const core::VictimDecision& decision = decisions[i];
      const core::VictimCandidate& victim = decision.victim();
      bool stamps_hold = true;
      for (const auto& [rid, stamp] : decision.evidence) {
        const lock::ResourceState* live =
            shards_[ShardIndex(rid)]->lm.table().Find(rid);
        if (live == nullptr) {
          stamps_hold = false;
          break;
        }
        const auto it = overlay.find(rid);
        if (it != overlay.end()) {
          if (stamp != it->second.first ||
              live->version() != it->second.second) {
            stamps_hold = false;
            break;
          }
        } else if (live->version() != stamp) {
          stamps_hold = false;
          break;
        }
      }
      if (!stamps_hold) {
        ++rejected;
        resolutions_rejected_.fetch_add(1, std::memory_order_relaxed);
        if (live_obs) {
          obs::Event event;
          event.kind = obs::EventKind::kResolutionRejected;
          event.tid = victim.junction;
          event.rid = victim.kind == core::VictimKind::kReposition
                          ? victim.resource
                          : 0;
          event.a = decision.cycle.size();
          event.b = victim.kind == core::VictimKind::kReposition;
          event.value = victim.cost;
          bus_->Emit(std::move(event));
        }
        continue;
      }
      // The sealed detect ran tracer-less (worker threads), so the
      // resolution span of a validated decision is minted here, at the
      // moment the resolution actually lands on the live shards.
      uint64_t res_span = 0;
      if (obs::Tracing(tracer_)) {
        res_span = tracer_->Open(obs::SpanKind::kResolution, 0, pass_span);
        tracer_->SetContext(res_span, victim.junction,
                            victim.kind == core::VictimKind::kReposition
                                ? victim.resource
                                : 0);
      }
      if (victim.kind == core::VictimKind::kReposition) {
        Shard& shard = *shards_[ShardIndex(victim.resource)];
        lock::ResourceState* state =
            shard.lm.mutable_table().FindMutableDeferred(victim.resource);
        TWBG_CHECK(state != nullptr);  // stamps hold: same state as sealed
        const Status applied = state->ApplyTdr2(victim.junction);
        TWBG_CHECK(applied.ok());  // identical queue => same outcome
        shard.lm.mutable_table().NoteMutation(victim.resource);
        overlay[victim.resource] = {decision.applied_version,
                                    state->version()};
        for (lock::TransactionId st : victim.st) {
          costs_.Bump(st, options_.detector.st_cost_multiplier,
                      options_.detector.st_cost_increment);
        }
      }
      if (live_obs) {
        for (size_t e = segments[i].first; e < segments[i].second; ++e) {
          obs::Event event = recorded[e];
          if (event.kind == obs::EventKind::kCyclePostMortem) {
            // Forensic <-> timeline join: the recorded post-mortem was
            // captured span-less on the local bus; stamp it with the
            // resolution span minted above before it reaches the sinks.
            event.span = res_span;
          }
          bus_->Emit(std::move(event));
        }
      }
      if (res_span != 0) {
        const bool reposition =
            victim.kind == core::VictimKind::kReposition;
        tracer_->Close(res_span, decision.cycle.size(), reposition ? 1 : 0,
                       reposition ? "TDR-2" : "TDR-1");
      }
      if (victim.kind == core::VictimKind::kAbort) {
        validated.abortion_list.push_back(victim.junction);
      } else if (std::find(validated.change_list.begin(),
                           validated.change_list.end(),
                           victim.resource) == validated.change_list.end()) {
        validated.change_list.push_back(victim.resource);
      }
      if (i < detect.walk.post_mortems.size()) {
        validated.post_mortems.push_back(
            std::move(detect.walk.post_mortems[i]));
      }
      validated.decisions.push_back(std::move(decisions[i]));
    }
    if (live_obs) replay(recorded.size() - 1);  // kStep2

    report = core::ApplyResolution(std::move(validated), *pass_host_, costs_,
                                   options_.detector);
    report.rejected = rejected;
    report.num_transactions = detect.num_transactions;
    report.num_edges = detect.num_edges;
    if (detect.incremental) {
      report.num_dirty_resources = detect.cache.num_dirty_resources;
      report.num_cached_resources = detect.cache.num_cached_resources;
      report.edges_rebuilt = detect.cache.edges_rebuilt;
      report.edges_reused = detect.cache.edges_reused;
    }

    if (live_obs) {
      obs::Event end;
      end.kind = obs::EventKind::kPassEnd;
      end.a = report.cycles_detected;
      end.b = report.aborted.size();
      end.span = lag_ns;  // seal-to-apply lag (zero in STW streams)
      end.value = static_cast<double>(pass_clock.ElapsedNanos());
      bus_->Emit(std::move(end));
    }
    ApplyReportLocked(report);
    if (obs::Enabled(bus_)) PublishShardStatsLocked();
    if (apply_span != 0) {
      // Apply-span counters: a = decisions applied, b = rejected.
      tracer_->Close(apply_span, report.decisions.size(), report.rejected);
    }
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  const uint64_t apply_ns = static_cast<uint64_t>(apply_pause.ElapsedNanos());
  UnlockAllShards(shard_locks, hold);
  {
    std::scoped_lock stl(stats_mu_);
    detection_lag_ns_.push_back(lag_ns);
  }
  // The client-visible pause of a pauseless pass is whichever critical
  // section was longest: a single shard publish or the validated apply.
  RecordFullPassPause(std::max(max_publish_ns, apply_ns));
  // Pass-span close contract: a = cycles actually resolved (detected
  // minus stamp-rejected — a rejected decision resolves nothing and is
  // re-derived next pass), b = the full pass cost in nanoseconds.
  const uint64_t pass_ns = static_cast<uint64_t>(pass_clock.ElapsedNanos());
  const uint64_t resolved =
      report.cycles_detected >= report.rejected
          ? report.cycles_detected - report.rejected
          : 0;
  CloseSpanStandalone(pass_span, resolved, pass_ns);
  // Full pass cost (publish + detect + validated apply), not just the
  // client-visible pause: the controller trades detector CPU for staleness.
  UpdateSchedulerAfterPass(pass_ns, report);
  return report;
}

core::ResolutionReport ConcurrentLockService::RunTimeoutSweep() {
  common::Stopwatch pause;
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  core::ResolutionReport report;
  {
    std::scoped_lock tl(txn_mu_);
    std::unique_lock<std::mutex> ol(obs_mu_, std::defer_lock);
    if (observed()) ol.lock();
    // Timeout resolution (the fallback the paper's algorithm replaces):
    // abort whoever has been observed blocked for `sweep_patience`
    // consecutive sweeps.  Crude — it may abort transactions that are
    // merely waiting, not deadlocked — but O(blocked transactions) cheap,
    // which is the point while degraded.  Only the blocked are visited:
    // every way out of kBlocked either ends the transaction or zeroes its
    // count (ReactivateLocked, CancelWait), so a count is never stale.
    // A kBlocked record waits in exactly one shard (CheckInvariants), and
    // the merged shard lists in ascending tid pick the victims in the
    // order a walk over the whole table would.
    const uint32_t patience = options_.robustness.degradation.sweep_patience;
    std::vector<lock::TransactionId> blocked;
    for (const auto& shard : shards_) {
      const std::vector<lock::TransactionId>& in_shard =
          shard->lm.BlockedTransactions();
      blocked.insert(blocked.end(), in_shard.begin(), in_shard.end());
    }
    std::sort(blocked.begin(), blocked.end());
    std::vector<lock::TransactionId> victims;
    for (lock::TransactionId tid : blocked) {
      if (++FindTxnLocked(tid)->blocked_sweeps >= patience) {
        victims.push_back(tid);
      }
    }
    for (lock::TransactionId victim : victims) {
      TxnRecord& rec = *FindTxnLocked(victim);
      TransitionLocked(victim, rec, TxnState::kAborted);
      // Deliberately NOT flagged deadlock_victim: a timeout abort is a
      // guess, not a detected cycle; it lands in sweep_aborts() instead.
      --live_txns_;
      sweep_aborts_.fetch_add(1, std::memory_order_relaxed);
      costs_.Erase(victim);
      if (obs::Enabled(bus_)) {
        obs::Event event;
        event.kind = obs::EventKind::kTxnAbort;
        event.tid = victim;
        event.a = 0;  // not a deadlock victim
        bus_->Emit(event);
      }
      if (obs::Tracing(tracer_)) tracer_->CloseTxn(victim, /*aborted=*/true);
      const std::vector<lock::TransactionId> granted =
          ReleaseAllShardsLocked(victim, rec.shard_mask);
      ReactivateLocked(granted);
      report.aborted.push_back(victim);
      report.granted.insert(report.granted.end(), granted.begin(),
                            granted.end());
    }
    if (obs::Enabled(bus_)) PublishShardStatsLocked();
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    // Serialized by the shard locks, so no lost update; the guard keeps a
    // racing second sweep (manual pass vs detector thread) from wrapping.
    const uint32_t remaining = degraded_remaining_.load(std::memory_order_relaxed);
    if (remaining > 0) {
      degraded_remaining_.store(remaining - 1, std::memory_order_relaxed);
    }
  }
  const uint64_t pause_ns = static_cast<uint64_t>(pause.ElapsedNanos());
  UnlockAllShards(shard_locks, hold);
  {
    // A degraded sweep is not a detection pass: its pause lands in its
    // own series so pause percentiles of full passes stay uncontaminated.
    std::scoped_lock stl(stats_mu_);
    sweep_pause_times_ns_.push_back(pause_ns);
  }
  return report;
}

void ConcurrentLockService::UnlockAllShards(
    std::vector<std::unique_lock<std::mutex>>& shard_locks,
    const common::Stopwatch& hold) {
  // Every shard was held for the whole critical section.
  const uint64_t hold_ns = static_cast<uint64_t>(hold.ElapsedNanos());
  for (auto& shard : shards_) {
    shard->hold_ns += hold_ns;
    shard->cv.notify_all();
  }
  shard_locks.clear();
}

void ConcurrentLockService::RecordFullPassPause(uint64_t pause_ns) {
  {
    std::scoped_lock stl(stats_mu_);
    pause_times_ns_.push_back(pause_ns);
  }
  // Graceful degradation: a pass that blew its pause budget switches the
  // next K scheduled passes to the cheap timeout-resolver sweep.  The
  // budget is judged against the period in effect during THIS pass, so
  // the retune that follows cannot excuse the pause that motivated it.
  const uint64_t budget_ns = EffectivePauseBudgetNs();
  if (budget_ns == 0 || pause_ns <= budget_ns) return;
  const uint32_t passes = options_.robustness.degradation.degraded_passes;
  degraded_remaining_.store(passes, std::memory_order_relaxed);
  obs::Event event;
  event.kind = obs::EventKind::kDegraded;
  event.a = passes;
  event.b = pause_ns / 1000;                              // the pause, µs
  event.value = static_cast<double>(budget_ns) / 1000.0;  // budget, µs
  EmitStandalone(std::move(event));
}

void ConcurrentLockService::ApplyReportLocked(
    const core::ResolutionReport& report) {
  for (lock::TransactionId victim : report.aborted) {
    TxnRecord* rec = FindTxnLocked(victim);
    if (rec == nullptr) continue;
    TransitionLocked(victim, *rec, TxnState::kAborted);
    rec->deadlock_victim = true;
    --live_txns_;
    ++deadlock_victims_;
    costs_.Erase(victim);
    if (obs::Enabled(bus_)) {
      obs::Event event;
      event.kind = obs::EventKind::kTxnAbort;
      event.tid = victim;
      event.a = 1;  // deadlock victim (TDR-1)
      bus_->Emit(event);
    }
    if (obs::Tracing(tracer_)) tracer_->CloseTxn(victim, /*aborted=*/true);
  }
  ReactivateLocked(report.granted);
}

void ConcurrentLockService::ReactivateLocked(
    const std::vector<lock::TransactionId>& granted) {
  for (lock::TransactionId g : granted) {
    TxnRecord* rec = FindTxnLocked(g);
    if (rec == nullptr ||
        rec->state.load(std::memory_order_relaxed) != TxnState::kBlocked) {
      continue;
    }
    TransitionLocked(g, *rec, TxnState::kActive);
    rec->locks_granted++;
    rec->blocked_sweeps = 0;
    RefreshCostLocked(g, *rec);
  }
}

void ConcurrentLockService::TransitionLocked(lock::TransactionId tid,
                                             TxnRecord& rec, TxnState to) {
  if (rec.state.load(std::memory_order_relaxed) == TxnState::kBlocked) {
    --blocked_txns_;
  }
  rec.state.store(to, std::memory_order_relaxed);
  if (wait_ends_.empty()) return;
  auto waiters = wait_ends_.extract(tid);
  if (waiters.empty()) return;
  const Status status = WaitEndStatus(tid, to);
  for (WaitCompletion& done : waiters.mapped()) done(status);
}

void ConcurrentLockService::PublishShardStatsLocked() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    obs::Event event;
    event.kind = obs::EventKind::kShardContention;
    event.rid = static_cast<lock::ResourceId>(s);  // shard index
    event.a = shard.acquire_waits;
    event.b = shard.ops;
    event.value = static_cast<double>(shard.hold_ns);
    bus_->Emit(event);
  }
}

void ConcurrentLockService::RefreshCostLocked(lock::TransactionId tid,
                                              const TxnRecord& rec) {
  if (rec.cost_pinned) return;  // SetCost owns this transaction's cost
  const TxnState state = rec.state.load(std::memory_order_relaxed);
  if (state == TxnState::kCommitted || state == TxnState::kAborted) return;
  double cost = 1.0;
  switch (options_.cost_policy) {
    case CostPolicy::kUnit:
      cost = 1.0;
      break;
    case CostPolicy::kLocksHeld:
      cost = 1.0 + static_cast<double>(rec.locks_granted);
      break;
    case CostPolicy::kAge:
      cost = 1.0 + static_cast<double>(next_ts_ - rec.begin_ts);
      break;
    case CostPolicy::kOpsDone:
      cost = 1.0 + static_cast<double>(rec.ops_executed);
      break;
  }
  costs_.Set(tid, cost);
}

void ConcurrentLockService::DetectorLoop() {
  std::unique_lock<std::mutex> lk(stop_mu_);
  while (!stopping_) {
    // Re-read every iteration: a retune applied after the previous pass
    // takes effect on the very next wait.
    const std::chrono::microseconds wait(
        current_period_us_.load(std::memory_order_acquire));
    if (stop_cv_.wait_for(lk, wait, [this] { return stopping_; })) {
      break;
    }
    lk.unlock();
    RunDetectionPass();
    lk.lock();
  }
}

uint64_t ConcurrentLockService::EffectivePauseBudgetNs() const {
  const uint64_t base_ns = options_.robustness.degradation.pause_budget_ns;
  if (base_ns == 0 || controller_ == nullptr || base_period_us_ == 0) {
    return base_ns;
  }
  const uint64_t period_us = current_period_us_.load(std::memory_order_acquire);
  if (period_us == 0 || period_us == base_period_us_) return base_ns;
  // Longer periods amortize a pass over more work, so a proportionally
  // longer pause keeps the same duty cycle; shorter periods tighten it.
  const double scaled = static_cast<double>(base_ns) *
                        static_cast<double>(period_us) /
                        static_cast<double>(base_period_us_);
  return scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
}

void ConcurrentLockService::UpdateSchedulerAfterPass(
    uint64_t pass_ns, const core::ResolutionReport& report) {
  if (controller_ == nullptr) return;
  // Read the blocked population under txn_mu_ alone before touching any
  // scheduling state (sched_mu_ is a leaf lock: nothing else is ever
  // taken under it).
  uint64_t blocked = 0;
  {
    std::scoped_lock tl(txn_mu_);
    blocked = blocked_txns_;
  }
  // Drain the estimator window (if any) before sched_mu_ — like the
  // blocked snapshot above, so sched_mu_ stays a leaf lock.
  obs::SpanSampleStats stats;
  if (estimator_ != nullptr) {
    std::scoped_lock ol(obs_mu_);
    stats = estimator_->Take(tracer_->now());
  }
  std::optional<sched::PeriodRetune> retune;
  {
    std::scoped_lock sl(sched_mu_);
    const auto now = std::chrono::steady_clock::now();
    // First pass has no predecessor; charge it one nominal period.
    uint64_t elapsed_us = current_period_us_.load(std::memory_order_relaxed);
    if (sched_seen_pass_) {
      elapsed_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - last_pass_time_)
              .count());
      if (elapsed_us == 0) elapsed_us = 1;
    }
    last_pass_time_ = now;
    sched_seen_pass_ = true;
    sched::PassSample sample;
    if (estimator_ != nullptr) {
      // Span-measured inputs (SchedulerOptions::use_span_estimates): the
      // window is delimited by the tracer's clock, cycles come from the
      // closed pass spans' resolved counts (stamp-rejected decisions
      // excluded, unlike report.cycles_detected), C from the pass spans'
      // cost counters, and B is time-averaged over the window's closed
      // wait spans instead of sampled at pass end.
      sample.elapsed = std::max<uint64_t>(stats.window_ns / 1000, 1);
      const uint64_t passes = std::max<uint64_t>(stats.passes, 1);
      sample.detection_cost =
          static_cast<double>(stats.pass_cost) / 1000.0 /
          static_cast<double>(passes);
      sample.cycles_resolved = stats.cycles;
      sample.blocked_txns = static_cast<uint64_t>(stats.avg_blocked() + 0.5);
    } else {
      sample.elapsed = elapsed_us;
      // Cost in the controller's time unit (µs), same as the period.
      sample.detection_cost = static_cast<double>(pass_ns) / 1000.0;
      sample.cycles_resolved = report.cycles_detected;
      sample.blocked_txns = blocked;
    }
    retune = controller_->OnPassComplete(sample);
    if (retune.has_value()) {
      current_period_us_.store(retune->new_period, std::memory_order_release);
    }
  }
  if (!retune.has_value()) return;
  period_retunes_.fetch_add(1, std::memory_order_relaxed);
  obs::Event event;
  event.kind = obs::EventKind::kPeriodRetuned;
  event.a = retune->old_period;
  event.b = retune->new_period;
  event.value = retune->deadlock_rate;
  EmitStandalone(std::move(event));
}

Result<TxnState> ConcurrentLockService::State(lock::TransactionId tid) const {
  std::scoped_lock tl(txn_mu_);
  const TxnRecord* rec = FindTxnLocked(tid);
  if (rec == nullptr) {
    return Status::NotFound(common::Format("unknown transaction T%u", tid));
  }
  return rec->state.load(std::memory_order_relaxed);
}

size_t ConcurrentLockService::live_transactions() const {
  std::scoped_lock tl(txn_mu_);
  return live_txns_;
}

Result<bool> ConcurrentLockService::HasDeadlock() {
  if (shards_.size() != 1) {
    return Status::FailedPrecondition(
        "HasDeadlock requires num_shards == 1 (merged multi-shard graph "
        "construction is not implemented)");
  }
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  return core::HwTwbg::Build(shards_[0]->lm.table()).HasCycle();
}

Result<std::string> ConcurrentLockService::RenderView(ServiceView view) {
  // Stop the world so the rendering is a consistent snapshot, then build
  // the view off the (single) live table.  The formats deliberately match
  // core::ScriptRunner's commands — see ServiceView.
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);

  if (view == ServiceView::kTable) {
    if (shards_.size() == 1) return shards_[0]->lm.table().ToString();
    std::string out;
    for (size_t s = 0; s < shards_.size(); ++s) {
      out += common::Format("-- shard %zu --\n", s);
      out += shards_[s]->lm.table().ToString();
    }
    return out;
  }
  if (view == ServiceView::kCosts) {
    std::string out;
    std::scoped_lock tl(txn_mu_);
    // Known to the lock table (shard order), as ScriptRunner prints.
    for (const auto& shard : shards_) {
      for (lock::TransactionId tid : shard->lm.KnownTransactions()) {
        out += common::Format("T%u: %.2f\n", tid, costs_.Get(tid));
      }
    }
    return out;
  }

  // The graph-derived views need the whole wait-for state in one table.
  if (shards_.size() != 1) {
    return Status::FailedPrecondition(
        "graph views require num_shards == 1 (merged multi-shard graph "
        "construction is not implemented)");
  }
  const lock::LockTable* table = &shards_[0]->lm.table();
  switch (view) {
    case ServiceView::kGraph:
      return core::HwTwbg::Build(*table).ToString();
    case ServiceView::kDot:
      return core::HwTwbg::Build(*table).ToDot();
    case ServiceView::kTst:
      return core::Tst::Build(*table).ToString();
    case ServiceView::kCycles: {
      std::string out;
      for (const auto& cycle :
           core::HwTwbg::Build(*table).ElementaryCycles()) {
        std::vector<std::string> names;
        for (lock::TransactionId tid : cycle) {
          names.push_back(common::Format("T%u", tid));
        }
        out += common::Format("cycle {%s}\n", common::Join(names, ", ").c_str());
      }
      return out;
    }
    case ServiceView::kOracle: {
      core::OracleResult oracle = core::AnalyzeByReduction(*table);
      std::vector<std::string> names;
      for (lock::TransactionId tid : oracle.stuck) {
        names.push_back(common::Format("T%u", tid));
      }
      return common::Format("deadlocked=%s stuck={%s}\n",
                            oracle.deadlocked ? "yes" : "no",
                            common::Join(names, ", ").c_str());
    }
    case ServiceView::kTable:
    case ServiceView::kCosts:
      break;  // handled above
  }
  return Status::Internal("unhandled view");
}

size_t ConcurrentLockService::deadlock_victims() const {
  std::scoped_lock tl(txn_mu_);
  return deadlock_victims_;
}

ShardStats ConcurrentLockService::shard_stats(size_t shard) const {
  ShardStats stats;
  if (shard >= shards_.size()) return stats;
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> sl(s.mu);
  stats.acquire_waits = s.acquire_waits;
  stats.ops = s.ops;
  stats.hold_ns = s.hold_ns;
  return stats;
}

std::vector<uint64_t> ConcurrentLockService::pause_times_ns() const {
  std::scoped_lock stl(stats_mu_);
  return pause_times_ns_;
}

std::vector<uint64_t> ConcurrentLockService::publish_pause_times_ns() const {
  std::scoped_lock stl(stats_mu_);
  return publish_pause_times_ns_;
}

std::vector<uint64_t> ConcurrentLockService::sweep_pause_times_ns() const {
  std::scoped_lock stl(stats_mu_);
  return sweep_pause_times_ns_;
}

std::vector<uint64_t> ConcurrentLockService::detection_lag_ns() const {
  std::scoped_lock stl(stats_mu_);
  return detection_lag_ns_;
}

Status ConcurrentLockService::CheckInvariants(bool deep) {
  // Stop the world so the cross-shard picture is consistent.
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  std::scoped_lock tl(txn_mu_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    Status status = shards_[s]->lm.CheckInvariants(deep);
    if (!status.ok()) {
      return Status::Internal(common::Format(
          "shard %zu: %s", s, std::string(status.message()).c_str()));
    }
  }
  size_t blocked_records = 0;
  for (size_t index = 0; index < txns_.size(); ++index) {
    const auto tid = static_cast<lock::TransactionId>(index + 1);
    const TxnRecord& rec = txns_[index];
    const TxnState state = rec.state.load(std::memory_order_relaxed);
    if (state == TxnState::kBlocked) ++blocked_records;
    if (state == TxnState::kActive && rec.blocked_sweeps != 0) {
      return Status::Internal(common::Format(
          "T%u is kActive but carries %u blocked sweeps", tid,
          rec.blocked_sweeps));
    }
    size_t blocked_in = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const lock::TxnLockInfo* info = shards_[s]->lm.Info(tid);
      if (info == nullptr) continue;
      if (state == TxnState::kCommitted || state == TxnState::kAborted) {
        return Status::Internal(common::Format(
            "terminated T%u is still known to shard %zu (leaked locks)", tid,
            s));
      }
      if (info->blocked_on.has_value()) ++blocked_in;
    }
    if (state == TxnState::kBlocked && blocked_in != 1) {
      return Status::Internal(common::Format(
          "T%u is kBlocked but blocked in %zu shards (expected exactly 1)",
          tid, blocked_in));
    }
    if (state != TxnState::kBlocked && blocked_in != 0) {
      return Status::Internal(common::Format(
          "T%u is not kBlocked but waits in %zu shards", tid, blocked_in));
    }
  }
  if (blocked_records != blocked_txns_) {
    return Status::Internal(common::Format(
        "%zu records are kBlocked but the blocked count is %zu",
        blocked_records, blocked_txns_));
  }
  // No leaked waiters: every blocked lock-table entry must belong to a
  // live transaction the service also believes is blocked.
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (lock::TransactionId tid : shards_[s]->lm.BlockedTransactions()) {
      const TxnRecord* rec = FindTxnLocked(tid);
      if (rec == nullptr ||
          rec->state.load(std::memory_order_relaxed) != TxnState::kBlocked) {
        return Status::Internal(common::Format(
            "shard %zu holds a blocked entry for T%u, which the service "
            "does not consider blocked (leaked waiter)",
            s, tid));
      }
    }
  }
  return Status::OK();
}

std::string ConcurrentLockService::DebugDump() {
  std::string out;
  common::Stopwatch hold;
  std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(~uint64_t{0}, hold);
  std::scoped_lock tl(txn_mu_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    out += common::Format("shard %zu:\n", s);
    out += shards_[s]->lm.table().ToString();
    for (lock::TransactionId tid : shards_[s]->lm.BlockedTransactions()) {
      out += common::Format("  T%u waits on R%u\n", tid,
                            *shards_[s]->lm.BlockedOn(tid));
    }
  }
  for (size_t index = 0; index < txns_.size(); ++index) {
    const TxnRecord& rec = txns_[index];
    out += common::Format(
        "T%zu state=%d victim=%d granted=%llu\n", index + 1,
        static_cast<int>(rec.state.load(std::memory_order_relaxed)),
        rec.deadlock_victim ? 1 : 0,
        static_cast<unsigned long long>(rec.locks_granted));
  }
  return out;
}

Status AcquireWithRetry(ConcurrentLockService& service,
                        lock::TransactionId tid, lock::ResourceId rid,
                        lock::LockMode mode,
                        const robustness::RetryOptions& retry, uint64_t seed,
                        uint32_t* attempts_out) {
  robustness::RetryBackoff backoff(retry, seed);
  uint32_t attempts = 0;
  for (;;) {
    Status status = service.AcquireBlocking(tid, rid, mode);
    ++attempts;
    if (attempts_out != nullptr) *attempts_out = attempts;
    if (!status.IsDeadlineExceeded() && !status.IsResourceExhausted()) {
      return status;
    }
    // A deadline expiry may have escalated into a server-side abort
    // (abort-after-N): the transaction is gone and a retry could only
    // return FailedPrecondition, so surface the deadline status as final.
    if (status.IsDeadlineExceeded()) {
      Result<TxnState> state = service.State(tid);
      if (state.ok() && *state == TxnState::kAborted) return status;
    }
    if (backoff.Exhausted()) {
      // Client-side abort-after-N: give up on the whole transaction.  The
      // abort may no-op if a server-side escalation already killed it.
      (void)service.Abort(tid);
      return status;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backoff.NextDelay()));
  }
}

}  // namespace twbg::txn
