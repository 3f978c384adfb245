// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "sim/simulator.h"

#include <algorithm>
#include <set>
#include <vector>

#include "common/stopwatch.h"
#include "core/oracle.h"
#include "core/twbg.h"
#include "lock/resource_state.h"

namespace twbg::sim {

namespace {

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

}  // namespace

Status SimConfig::Validate() const {
  if (workload.concurrency < 1) {
    return Status::InvalidArgument(
        "SimConfig: workload.concurrency must be >= 1");
  }
  if (record_trace && trace_capacity == 0) {
    return Status::InvalidArgument(
        "SimConfig: record_trace requires trace_capacity >= 1");
  }
  TWBG_RETURN_IF_ERROR(scheduler.Validate());
  if (scheduler.use_span_estimates && span_tracer == nullptr) {
    return Status::InvalidArgument(
        "SimConfig: scheduler.use_span_estimates requires span_tracer");
  }
  const bool adaptive =
      period_controller != nullptr ||
      scheduler.policy != sched::SchedulerPolicy::kFixedPeriod;
  if (adaptive && detection_period == 0) {
    return Status::InvalidArgument(
        "SimConfig: closed-loop scheduling requires detection_period > 0");
  }
  return robustness.Validate();
}

Result<std::unique_ptr<Simulator>> Simulator::Create(
    const SimConfig& config,
    std::unique_ptr<baselines::DetectionStrategy> strategy) {
  if (strategy == nullptr) {
    return Status::InvalidArgument("Simulator: strategy must not be null");
  }
  TWBG_RETURN_IF_ERROR(config.Validate());
  return std::make_unique<Simulator>(config, std::move(strategy));
}

Simulator::Simulator(const SimConfig& config,
                     std::unique_ptr<baselines::DetectionStrategy> strategy)
    : config_(config),
      strategy_(std::move(strategy)),
      generator_(config.workload),
      lock_manager_(config.admission),
      trace_(config.record_trace ? config.trace_capacity : 0) {
  TWBG_CHECK(strategy_ != nullptr);
  TWBG_CHECK(config_.Validate().ok());
  lock_manager_.set_event_bus(&bus_);
  lock_manager_.set_span_tracer(config_.span_tracer);
  if (config_.record_trace) bus_.Subscribe(&trace_sink_);
  if (config_.enable_watchdog) {
    watchdog_ = std::make_unique<obs::Watchdog>(&bus_, config_.watchdog);
    bus_.Subscribe(watchdog_.get());
  }
  if (!config_.fault_plan.empty()) {
    injector_ = std::make_unique<robustness::FaultInjector>(config_.fault_plan);
  }
  if (config_.period_controller != nullptr) {
    controller_ = config_.period_controller;
  } else if (config_.scheduler.policy !=
             sched::SchedulerPolicy::kFixedPeriod) {
    owned_controller_ = sched::MakePeriodController(
        config_.scheduler, config_.detection_period);
    controller_ = owned_controller_.get();
  }
  if (config_.detection_period > 0) {
    const size_t period =
        controller_ != nullptr ? controller_->period() : config_.detection_period;
    metrics_.final_detection_period = period;
    metrics_.min_detection_period = period;
    metrics_.max_detection_period = period;
  }
  if (controller_ != nullptr && config_.scheduler.use_span_estimates) {
    // Validate() guarantees span_tracer is set with the flag on.
    estimator_ = std::make_unique<obs::SpanEstimator>();
    config_.span_tracer->Subscribe(estimator_.get());
  }
}

Simulator::~Simulator() {
  if (estimator_ != nullptr) {
    config_.span_tracer->Unsubscribe(estimator_.get());
  }
}

Status Simulator::StreamEventsTo(const std::string& path) {
  if (jsonl_ != nullptr) {
    return Status::FailedPrecondition("already streaming events");
  }
  Result<std::unique_ptr<obs::JsonlSink>> sink = obs::JsonlSink::Open(path);
  if (!sink.ok()) return sink.status();
  jsonl_ = std::move(sink).value();
  bus_.Subscribe(jsonl_.get());
  return Status::OK();
}

void Simulator::Emit(obs::Event event) {
  if (!bus_.active()) return;
  bus_.Emit(event);
}

void Simulator::SpawnUpToConcurrency() {
  const uint64_t max_inflight = config_.robustness.admission.max_inflight_txns;
  while (live_.size() < config_.workload.concurrency) {
    size_t logical;
    auto eligible = restart_queue_.end();
    for (auto it = restart_queue_.begin(); it != restart_queue_.end(); ++it) {
      if (it->not_before_tick <= metrics_.ticks) {
        eligible = it;
        break;
      }
    }
    const bool spawnable = eligible != restart_queue_.end() ||
                           spawned_ < config_.workload.num_transactions;
    if (!spawnable) return;
    if (max_inflight != 0 && live_.size() >= max_inflight) {
      // Admission control sheds the Begin; the spawn is retried on a
      // later call (typically next tick).
      ++metrics_.admission_rejects;
      obs::Event event;
      event.kind = obs::EventKind::kAdmissionReject;
      event.a = live_.size();
      event.b = max_inflight;
      Emit(event);
      return;
    }
    if (eligible != restart_queue_.end()) {
      logical = eligible->logical;
      restart_queue_.erase(eligible);
    } else {
      logical = spawned_++;
      scripts_[logical] = generator_.NextScript();
    }
    Execution e;
    e.logical = logical;
    e.tid = next_tid_++;
    e.script = scripts_[logical];
    e.began_at = metrics_.ticks;
    const lock::TransactionId tid = e.tid;
    live_[tid] = std::move(e);
    costs_.Set(tid, 1.0);
    // Prevention schemes key their timestamps off the logical id, which
    // is stable across restarts (required for their progress guarantee).
    strategy_->OnSpawn(tid, logical);
    const size_t restarts = restart_counts_[logical];
    obs::Event event;
    event.kind = restarts > 0 ? obs::EventKind::kTxnRestart
                              : obs::EventKind::kTxnBegin;
    event.tid = tid;
    event.a = restarts;
    Emit(event);
    if (obs::Tracing(config_.span_tracer)) {
      config_.span_tracer->OpenTxn(tid, restarts > 0 ? "restart" : "fresh");
    }
  }
}

void Simulator::KillAndRestart(lock::TransactionId tid) {
  auto it = live_.find(tid);
  if (it == live_.end()) return;
  metrics_.wasted_ops += it->second.ops_done;
  ++metrics_.restarts;
  obs::Event event;
  event.kind = obs::EventKind::kTxnAbort;
  event.tid = tid;
  event.a = 1;  // killed, not a voluntary abort
  Emit(event);
  if (obs::Tracing(config_.span_tracer)) {
    config_.span_tracer->CloseTxn(tid, /*aborted=*/true);
  }
  const size_t logical = it->second.logical;
  const size_t count = ++restart_counts_[logical];
  const size_t backoff =
      std::min(count, config_.restart_backoff_cap) * config_.restart_backoff;
  restart_queue_.push_back(PendingRestart{logical, metrics_.ticks + backoff});
  costs_.Erase(tid);
  live_.erase(it);
}

void Simulator::Consume(const baselines::StrategyOutcome& outcome) {
  metrics_.cycles_found += outcome.cycles_found;
  metrics_.no_abort_resolutions += outcome.repositioned;
  metrics_.detector_work += outcome.work;
  metrics_.graph_dirty_resources += outcome.num_dirty_resources;
  metrics_.graph_cached_resources += outcome.num_cached_resources;
  metrics_.graph_edges_rebuilt += outcome.edges_rebuilt;
  metrics_.graph_edges_reused += outcome.edges_reused;
  if (!outcome.aborted.empty() || outcome.repositioned > 0) {
    acted_this_tick_ = true;
  }
  for (lock::TransactionId victim : outcome.aborted) {
    ++metrics_.deadlock_aborts;
    if (config_.measure_false_aborts && pre_stuck_.count(victim) == 0) {
      ++metrics_.false_aborts;
    }
    KillAndRestart(victim);
  }
}

void Simulator::InvokeStrategy(bool periodic, lock::TransactionId blocked) {
  if (config_.measure_false_aborts) {
    pre_stuck_.clear();
    for (lock::TransactionId tid :
         core::AnalyzeByReduction(lock_manager_.table()).stuck) {
      pre_stuck_.insert(tid);
    }
  }
  if (bus_.active()) {
    obs::Event start;
    start.kind = obs::EventKind::kPassStart;
    start.tid = blocked;
    start.a = periodic ? 1 : 0;
    bus_.Emit(start);
  }
  obs::SpanTracer* tracer = config_.span_tracer;
  const uint64_t pass_span =
      obs::Tracing(tracer) ? tracer->Open(obs::SpanKind::kPass) : 0;
  if (pass_span != 0 && !periodic) tracer->SetContext(pass_span, blocked, 0);
  common::Stopwatch watch;
  baselines::StrategyOutcome outcome =
      periodic ? strategy_->OnPeriodic(lock_manager_, costs_)
               : strategy_->OnBlock(lock_manager_, costs_, blocked);
  const int64_t elapsed_ns = watch.ElapsedNanos();
  if (pass_span != 0) {
    // Pass-span close contract: a = cycles resolved, b = the pass's cost
    // in the host's cost unit — the strategy's deterministic work units,
    // never wall time (passes take zero ticks on the manual clock).
    tracer->Close(pass_span, outcome.cycles_found, outcome.work);
  }
  metrics_.detector_seconds += static_cast<double>(elapsed_ns) / 1e9;
  ++metrics_.detector_invocations;
  // Deterministic cost signal for the period controller: the strategy's
  // own work units, never wall time.
  last_pass_cycles_ = outcome.cycles_found;
  last_pass_work_ = outcome.work;
  if (bus_.active()) {
    obs::Event end;
    end.kind = obs::EventKind::kPassEnd;
    end.tid = blocked;
    end.a = outcome.cycles_found;
    end.b = outcome.aborted.size();
    end.value = static_cast<double>(elapsed_ns);
    bus_.Emit(end);
  }
  Consume(outcome);
}

bool Simulator::RecoverFromStall() {
  // The strategy failed to resolve a real deadlock (the oracle and the
  // H/W-TWBG agree by Theorem 1).  Break every remaining cycle by
  // aborting its min-cost member — aborting a merely-stuck waiter queued
  // behind the cycle would leave the deadlock intact and livelock the run.
  bool acted = false;
  for (;;) {
    core::HwTwbg graph = core::HwTwbg::Build(lock_manager_.table());
    std::vector<std::vector<lock::TransactionId>> cycles =
        graph.ElementaryCycles(/*max_cycles=*/1);
    if (cycles.empty()) break;
    lock::TransactionId victim = cycles[0].front();
    for (lock::TransactionId tid : cycles[0]) {
      if (costs_.Get(tid) < costs_.Get(victim)) victim = tid;
    }
    ++metrics_.missed_deadlocks;
    obs::Event event;
    event.kind = obs::EventKind::kDetectorMiss;
    event.tid = victim;
    Emit(event);
    lock_manager_.ReleaseAll(victim);
    KillAndRestart(victim);
    acted = true;
  }
  acted_this_tick_ |= acted;
  return acted;
}

void Simulator::ApplyTickFaults() {
  if (injector_ == nullptr) return;
  for (const robustness::Fault& fault :
       injector_->TakeTickFaults(metrics_.ticks)) {
    switch (fault.kind) {
      case robustness::FaultKind::kStallShard:
        // The simulator is unsharded: a stalled partition freezes every
        // execution (detection keeps running — the detector is not part
        // of the stalled partition).
        stall_until_ = std::max(stall_until_, metrics_.ticks + fault.duration);
        ++metrics_.faults_injected;
        Emit(FaultEvent(fault));
        acted_this_tick_ = true;
        break;
      case robustness::FaultKind::kCrashTxn: {
        auto it = live_.find(fault.txn);
        if (it == live_.end()) break;  // target not live: fault is a no-op
        ++metrics_.faults_injected;
        Emit(FaultEvent(fault));
        lock_manager_.ReleaseAll(fault.txn);
        KillAndRestart(fault.txn);
        acted_this_tick_ = true;
        break;
      }
      case robustness::FaultKind::kDelayGrant: {
        auto it = live_.find(fault.txn);
        if (it == live_.end()) break;
        ++metrics_.faults_injected;
        Emit(FaultEvent(fault));
        it->second.resume_after = std::max(
            it->second.resume_after,
            metrics_.ticks + static_cast<size_t>(fault.duration));
        break;
      }
      case robustness::FaultKind::kDropWakeup:
        break;  // excluded by TakeTickFaults; fires at wakeup observation
    }
  }
}

void Simulator::MaybeRunPeriodicPass() {
  if (config_.detection_period == 0) return;
  if (controller_ == nullptr) {
    // Historical fixed-period schedule, byte-identical to before the
    // scheduling layer existed.
    if (metrics_.ticks % config_.detection_period == 0) {
      InvokeStrategy(/*periodic=*/true, lock::kInvalidTransaction);
    }
    return;
  }
  if (metrics_.ticks < next_pass_tick_) return;
  InvokeStrategy(/*periodic=*/true, lock::kInvalidTransaction);
  sched::PassSample sample;
  if (estimator_ != nullptr) {
    // Span-measured inputs (SchedulerOptions::use_span_estimates): the
    // lambda numerator is every cycle a pass span resolved in the window
    // (continuous passes included — the flat path only sees the periodic
    // pass's own count), and B is the time-averaged blocked population
    // integrated from closed wait spans instead of an instantaneous
    // blocked count at pass end.  C stays the just-closed pass's work
    // units — identical to that pass span's `b` counter.
    const obs::SpanSampleStats stats =
        estimator_->Take(config_.span_tracer->now());
    sample.elapsed = stats.window_ns;
    sample.detection_cost = static_cast<double>(last_pass_work_);
    sample.cycles_resolved = stats.cycles;
    sample.blocked_txns = static_cast<uint64_t>(stats.avg_blocked() + 0.5);
  } else {
    sample.elapsed = metrics_.ticks - last_pass_tick_;
    sample.detection_cost = static_cast<double>(last_pass_work_);
    sample.cycles_resolved = last_pass_cycles_;
    sample.blocked_txns = lock_manager_.NumBlocked();
  }
  if (const std::optional<sched::PeriodRetune> retune =
          controller_->OnPassComplete(sample)) {
    ++metrics_.period_retunes;
    obs::Event event;
    event.kind = obs::EventKind::kPeriodRetuned;
    event.a = retune->old_period;
    event.b = retune->new_period;
    event.value = retune->deadlock_rate;
    Emit(event);
  }
  const size_t period = std::max<size_t>(controller_->period(), 1);
  metrics_.final_detection_period = period;
  metrics_.min_detection_period =
      std::min(metrics_.min_detection_period, period);
  metrics_.max_detection_period =
      std::max(metrics_.max_detection_period, period);
  last_pass_tick_ = metrics_.ticks;
  next_pass_tick_ = metrics_.ticks + period;
}

void Simulator::DeadlineKill(lock::TransactionId tid) {
  ++metrics_.deadline_aborts;
  lock_manager_.ReleaseAll(tid);
  KillAndRestart(tid);
  acted_this_tick_ = true;
}

bool Simulator::BackoffOrKill(Execution& e) {
  if (!e.backoff.has_value()) {
    e.backoff.emplace(config_.robustness.retry,
                      config_.workload.seed ^
                          (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(
                                                       e.tid)));
  }
  if (e.backoff->Exhausted()) {
    DeadlineKill(e.tid);  // invalidates e
    return false;
  }
  e.resume_after =
      metrics_.ticks + static_cast<size_t>(e.backoff->NextDelay());
  return true;
}

void Simulator::ExpireDeadlines() {
  const robustness::DeadlineOptions& dl = config_.robustness.deadline;
  if (dl.lock_wait == 0 && dl.txn_budget == 0) return;
  std::vector<lock::TransactionId> order;
  order.reserve(live_.size());
  for (const auto& [tid, e] : live_) order.push_back(tid);
  for (lock::TransactionId tid : order) {
    auto it = live_.find(tid);
    if (it == live_.end()) continue;  // killed earlier in this sweep
    Execution& e = it->second;
    // Whole-transaction budget: out of time regardless of state.
    if (dl.txn_budget != 0 && metrics_.ticks - e.began_at >= dl.txn_budget) {
      DeadlineKill(tid);
      continue;
    }
    if (dl.lock_wait == 0 || !e.blocked_at.has_value()) continue;
    if (!lock_manager_.IsBlocked(tid)) continue;  // granted, not yet observed
    if (metrics_.ticks - *e.blocked_at < dl.lock_wait) continue;
    // The wait expired: withdraw the pending request (queue invariants
    // restored, holdings intact) and re-issue it after a backoff.  This
    // wait is counted as deadline-expired, NOT as a completed wait
    // (wait_ticks) and NOT as a detector resolution.
    const lock::TxnLockInfo* info = lock_manager_.Info(tid);
    TWBG_CHECK(info != nullptr && info->blocked_on.has_value());
    const lock::ResourceId rid = *info->blocked_on;
    const lock::LockMode mode = info->blocked_mode;
    const uint64_t span = info->wait_span;
    Result<std::vector<lock::TransactionId>> granted =
        lock_manager_.CancelWait(tid);
    TWBG_CHECK(granted.ok());
    ++metrics_.deadline_expired_waits;
    ++e.deadline_expiries;
    e.blocked_at.reset();
    TWBG_CHECK(e.next_op > 0);
    --e.next_op;  // the withdrawn request is re-issued on resume
    acted_this_tick_ = true;
    const bool escalate =
        dl.abort_after != 0 && e.deadline_expiries >= dl.abort_after;
    obs::Event event;
    event.kind = obs::EventKind::kDeadlineExpired;
    event.tid = tid;
    event.rid = rid;
    event.mode = mode;
    event.span = span;
    event.a = e.deadline_expiries;
    event.b = escalate ? 1 : 0;
    Emit(event);
    if (escalate) {
      DeadlineKill(tid);
      continue;
    }
    BackoffOrKill(e);
  }
}

SimMetrics Simulator::Run() {
  if (config_.span_tracer != nullptr) {
    // Spans share the bus's logical clock: the simulator tick.  Pinning
    // the manual clock before the first spawn keeps the initial txn
    // spans (and the estimator's first window) off the wall clock.
    config_.span_tracer->set_time(metrics_.ticks);
    if (estimator_ != nullptr) estimator_->Reset(config_.span_tracer->now());
  }
  SpawnUpToConcurrency();
  size_t stall = 0;
  while (metrics_.committed < config_.workload.num_transactions &&
         metrics_.ticks < config_.max_ticks) {
    bus_.set_time(metrics_.ticks);
    if (config_.span_tracer != nullptr) {
      config_.span_tracer->set_time(metrics_.ticks);
    }
    acted_this_tick_ = false;
    bool progress = false;
    ApplyTickFaults();
    ExpireDeadlines();

    if (metrics_.ticks >= stall_until_) {
      std::vector<lock::TransactionId> order;
      order.reserve(live_.size());
      for (const auto& [tid, e] : live_) order.push_back(tid);
      for (lock::TransactionId tid : order) {
        auto it = live_.find(tid);
        if (it == live_.end()) continue;  // killed by a strategy call
        if (lock_manager_.IsBlocked(tid)) continue;
        Execution& e = it->second;
        if (metrics_.ticks < e.resume_after) continue;  // backing off
        if (e.blocked_at.has_value()) {
          if (injector_ != nullptr && injector_->TakeDropWakeup(tid)) {
            // The wakeup is lost: the grant stands in the lock manager
            // but this execution does not observe it until next tick.
            ++metrics_.faults_injected;
            robustness::Fault fault;
            fault.kind = robustness::FaultKind::kDropWakeup;
            fault.txn = tid;
            Emit(FaultEvent(fault));
            e.resume_after = metrics_.ticks + 1;
            continue;
          }
          // The wait that began at *blocked_at ended with a grant.
          const double waited =
              static_cast<double>(metrics_.ticks - *e.blocked_at);
          metrics_.wait_ticks.Add(waited);
          e.blocked_at.reset();
          obs::Event event;
          event.kind = obs::EventKind::kWaitEnd;
          event.tid = tid;
          // wait_span outlives the wakeup, so this correlates with the
          // kLockBlock/kLockWakeup pair of the wait that just ended.
          event.span = lock_manager_.WaitSpan(tid);
          event.value = waited;
          Emit(event);
        }
        if (e.next_op >= e.script.ops.size()) {
          // Strict 2PL commit: release everything at once.
          costs_.Erase(tid);
          lock_manager_.ReleaseAll(tid);
          ++metrics_.committed;
          obs::Event event;
          event.kind = obs::EventKind::kTxnCommit;
          event.tid = tid;
          Emit(event);
          if (obs::Tracing(config_.span_tracer)) {
            config_.span_tracer->CloseTxn(tid, /*aborted=*/false);
          }
          live_.erase(it);
          progress = true;
          SpawnUpToConcurrency();
          continue;
        }
        const auto& [rid, mode] = e.script.ops[e.next_op];
        const uint64_t watermark =
            config_.robustness.admission.queue_depth_watermark;
        if (watermark != 0) {
          const lock::ResourceState* res = lock_manager_.table().Find(rid);
          // Holders (conversions) bypass admission: shedding a conversion
          // cannot shrink the queue it already heads.
          if (res != nullptr && res->FindHolder(tid) == nullptr) {
            robustness::AdmissionContext ctx;
            ctx.queue_depth = res->queue().size();
            robustness::WatermarkAdmission gate(config_.robustness.admission);
            if (!gate.AdmitAcquire(ctx).ok()) {
              ++metrics_.admission_rejects;
              obs::Event event;
              event.kind = obs::EventKind::kAdmissionReject;
              event.tid = tid;
              event.rid = rid;
              event.a = ctx.queue_depth;
              event.b = watermark;
              Emit(event);
              // The op is NOT consumed: it is retried after backoff.
              BackoffOrKill(e);
              continue;
            }
          }
        }
        Result<lock::RequestOutcome> outcome =
            lock_manager_.Acquire(tid, rid, mode);
        TWBG_CHECK(outcome.ok());
        ++e.ops_done;
        costs_.Set(tid, 1.0 + static_cast<double>(e.ops_done));
        // The blocked request is granted in place later, so the op is
        // consumed either way.
        ++e.next_op;
        // Grant/block/convert events are emitted by the lock manager, which
        // has this run's bus attached.
        if (*outcome == lock::RequestOutcome::kBlocked) {
          e.blocked_at = metrics_.ticks;
          if (strategy_->is_continuous()) {
            InvokeStrategy(/*periodic=*/false, tid);
          }
        } else {
          progress = true;
        }
      }
    }

    MaybeRunPeriodicPass();

    metrics_.blocked_ticks += lock_manager_.NumBlocked();
    if (progress || acted_this_tick_) {
      stall = 0;
    } else if (++stall >= config_.stall_patience) {
      if (RecoverFromStall()) stall = 0;
      SpawnUpToConcurrency();
    }
    SpawnUpToConcurrency();
    ++metrics_.ticks;
  }
  metrics_.timed_out =
      metrics_.committed < config_.workload.num_transactions;
  metrics_.trace_dropped = trace_.dropped();
  if (jsonl_ != nullptr) {
    jsonl_->Flush();
    metrics_.trace_write_errors = jsonl_->write_errors();
  }
  if (watchdog_ != nullptr) {
    metrics_.starvation_alerts = watchdog_->starvation_alerts();
    metrics_.convoy_alerts = watchdog_->convoy_alerts();
  }
  return metrics_;
}

}  // namespace twbg::sim
