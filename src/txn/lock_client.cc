// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "txn/lock_client.h"

#include <chrono>
#include <thread>

#include "common/string_util.h"

namespace twbg::txn {

namespace {

// Await polls the transaction's atomic state at this granularity.  A
// grant or victim abort flips the state from another thread (a releasing
// client or the detector), so there is no wakeup to subscribe to — the
// same reason the daemon reactor polls its pending awaits.
constexpr std::chrono::microseconds kAwaitPoll{200};

}  // namespace

DetectResult ProjectReport(const core::ResolutionReport& report) {
  DetectResult result;
  result.report = report.ToString();
  result.aborted = report.aborted;
  result.cycles_detected = report.cycles_detected;
  for (const core::CyclePostMortem& pm : report.post_mortems) {
    result.post_mortems += pm.ToString();
  }
  return result;
}

Result<std::unique_ptr<InProcessClient>> InProcessClient::Create(
    ConcurrentLockService* service) {
  if (service == nullptr) {
    return Status::InvalidArgument("service must not be null");
  }
  return std::unique_ptr<InProcessClient>(new InProcessClient(service));
}

Result<lock::TransactionId> InProcessClient::Begin() {
  return service_->Begin();
}

Result<lock::RequestOutcome> InProcessClient::Acquire(lock::TransactionId tid,
                                                      lock::ResourceId rid,
                                                      lock::LockMode mode) {
  return service_->AcquireAsync(tid, rid, mode);
}

Status InProcessClient::Await(lock::TransactionId tid) {
  while (true) {
    Result<TxnState> state = service_->State(tid);
    if (!state.ok()) return state.status();
    switch (*state) {
      case TxnState::kActive:
        return Status::OK();
      case TxnState::kBlocked:
        break;
      case TxnState::kAborted:
        return Status::DeadlockVictim(common::Format(
            "T%u aborted as deadlock victim while waiting", tid));
      case TxnState::kCommitted:
        return Status::FailedPrecondition(
            common::Format("T%u is committed; nothing to await", tid));
    }
    std::this_thread::sleep_for(kAwaitPoll);
  }
}

Status InProcessClient::Commit(lock::TransactionId tid) {
  return service_->Commit(tid);
}

Status InProcessClient::Abort(lock::TransactionId tid) {
  return service_->Abort(tid);
}

Result<TxnState> InProcessClient::State(lock::TransactionId tid) {
  return service_->State(tid);
}

Status InProcessClient::SetCost(lock::TransactionId tid, double cost) {
  return service_->SetCost(tid, cost);
}

Result<DetectResult> InProcessClient::Detect() {
  return ProjectReport(service_->RunDetectionPass());
}

Result<bool> InProcessClient::HasDeadlock() { return service_->HasDeadlock(); }

Result<std::string> InProcessClient::View(ServiceView view) {
  return service_->RenderView(view);
}

Result<ClientStats> InProcessClient::Stats() {
  ClientStats stats;
  stats.live_txns = service_->live_transactions();
  stats.deadlock_victims = service_->deadlock_victims();
  stats.snapshot_epoch = service_->snapshot_epoch();
  stats.num_shards = service_->num_shards();
  stats.admission_rejects = service_->admission_rejects();
  stats.resolutions_rejected = service_->resolutions_rejected();
  return stats;
}

}  // namespace twbg::txn
