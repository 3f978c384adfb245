// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "txn/lock_client.h"

#include <future>

namespace twbg::txn {

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
  // The completion owns the promise: set_value may still be running on
  // the thread that ended the wait when get() returns here.
  auto ended = std::make_shared<std::promise<Status>>();
  std::future<Status> status = ended->get_future();
  service_->OnWaitEnd(tid, [ended](const Status& s) { ended->set_value(s); });
  return status.get();
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
