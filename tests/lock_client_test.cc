// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// InProcessClient: the LockClient contract against a periodic-engine
// service in the same address space — Begin/Acquire/Await/Commit
// round-trips, victim-abort surfacing through Await, view rendering and
// the ProjectReport projection the daemon shares.

#include "txn/lock_client.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

namespace twbg::txn {
namespace {

ConcurrentServiceOptions PeriodicOptions() {
  ConcurrentServiceOptions options;
  options.detection_mode = DetectionMode::kPeriodic;
  options.num_shards = 1;
  return options;
}

std::unique_ptr<ConcurrentLockService> MakeService() {
  auto service = ConcurrentLockService::Create(PeriodicOptions());
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

TEST(InProcessClientTest, CreateRejectsNull) {
  EXPECT_TRUE(InProcessClient::Create(nullptr).status().IsInvalidArgument());
}

TEST(InProcessClientTest, GrantCommitLifecycle) {
  auto service = MakeService();
  auto client = InProcessClient::Create(service.get());
  ASSERT_TRUE(client.ok());

  auto tid = (*client)->Begin();
  ASSERT_TRUE(tid.ok());
  auto outcome = (*client)->Acquire(*tid, 1, lock::LockMode::kX);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, lock::RequestOutcome::kGranted);
  // Re-request of a held lock.
  outcome = (*client)->Acquire(*tid, 1, lock::LockMode::kX);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, lock::RequestOutcome::kAlreadyHeld);
  // Await on an active transaction returns immediately.
  EXPECT_TRUE((*client)->Await(*tid).ok());
  EXPECT_TRUE((*client)->Commit(*tid).ok());
  auto state = (*client)->State(*tid);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, TxnState::kCommitted);
  // Double commit is a clean precondition failure.
  EXPECT_TRUE((*client)->Commit(*tid).IsFailedPrecondition());
}

TEST(InProcessClientTest, BlockedAcquireGrantedAfterRelease) {
  auto service = MakeService();
  auto client = InProcessClient::Create(service.get());
  ASSERT_TRUE(client.ok());

  auto holder = (*client)->Begin();
  auto waiter = (*client)->Begin();
  ASSERT_TRUE(holder.ok() && waiter.ok());
  ASSERT_TRUE((*client)->Acquire(*holder, 1, lock::LockMode::kX).ok());
  auto outcome = (*client)->Acquire(*waiter, 1, lock::LockMode::kS);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, lock::RequestOutcome::kBlocked);

  // Release from another thread while this one awaits the grant.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(service->Commit(*holder).ok());
  });
  EXPECT_TRUE((*client)->Await(*waiter).ok());
  releaser.join();
  auto state = (*client)->State(*waiter);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, TxnState::kActive);
  EXPECT_TRUE((*client)->Commit(*waiter).ok());
}

TEST(InProcessClientTest, VictimSurfacesThroughAwait) {
  auto service = MakeService();
  auto client = InProcessClient::Create(service.get());
  ASSERT_TRUE(client.ok());

  auto t1 = (*client)->Begin();
  auto t2 = (*client)->Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE((*client)->Acquire(*t1, 1, lock::LockMode::kX).ok());
  ASSERT_TRUE((*client)->Acquire(*t2, 2, lock::LockMode::kX).ok());
  EXPECT_EQ(*(*client)->Acquire(*t1, 2, lock::LockMode::kX),
            lock::RequestOutcome::kBlocked);
  EXPECT_EQ(*(*client)->Acquire(*t2, 1, lock::LockMode::kX),
            lock::RequestOutcome::kBlocked);

  auto deadlocked = (*client)->HasDeadlock();
  ASSERT_TRUE(deadlocked.ok());
  EXPECT_TRUE(*deadlocked);

  // Make T1 the cheaper victim, then resolve.
  ASSERT_TRUE((*client)->SetCost(*t1, 1.0).ok());
  ASSERT_TRUE((*client)->SetCost(*t2, 10.0).ok());
  auto detect = (*client)->Detect();
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->cycles_detected, 1u);
  ASSERT_EQ(detect->aborted.size(), 1u);
  EXPECT_EQ(detect->aborted[0], *t1);
  EXPECT_FALSE(detect->report.empty());

  // The victim's Await reports the abort; the survivor's reports the
  // grant it inherited.
  EXPECT_TRUE((*client)->Await(*t1).IsDeadlockVictim());
  EXPECT_TRUE((*client)->Await(*t2).ok());
  EXPECT_TRUE((*client)->Commit(*t2).ok());
}

TEST(InProcessClientTest, ViewsRender) {
  auto service = MakeService();
  auto client = InProcessClient::Create(service.get());
  ASSERT_TRUE(client.ok());

  auto tid = (*client)->Begin();
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE((*client)->Acquire(*tid, 1, lock::LockMode::kS).ok());

  auto table = (*client)->View(ServiceView::kTable);
  ASSERT_TRUE(table.ok());
  EXPECT_NE(table->find("R1"), std::string::npos);
  auto oracle = (*client)->View(ServiceView::kOracle);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NE(oracle->find("deadlocked=no"), std::string::npos);
  auto costs = (*client)->View(ServiceView::kCosts);
  ASSERT_TRUE(costs.ok());
  EXPECT_NE(costs->find("T1:"), std::string::npos);
}

TEST(InProcessClientTest, StatsReportServiceCountersZeroSessions) {
  auto service = MakeService();
  auto client = InProcessClient::Create(service.get());
  ASSERT_TRUE(client.ok());

  auto tid = (*client)->Begin();
  ASSERT_TRUE(tid.ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->live_txns, 1u);
  EXPECT_EQ(stats->num_shards, 1u);
  EXPECT_EQ(stats->sessions_active, 0u);
  EXPECT_EQ(stats->sessions_total, 0u);
  EXPECT_EQ(stats->orphan_aborts, 0u);
}

TEST(ProjectReportTest, ProjectsAbortsAndCycleCount) {
  auto service = MakeService();
  ASSERT_TRUE(service->Begin().ok());
  ASSERT_TRUE(service->Begin().ok());
  ASSERT_TRUE(service->AcquireBlocking(1, 1, lock::LockMode::kX).ok());
  ASSERT_TRUE(service->AcquireBlocking(2, 2, lock::LockMode::kX).ok());
  ASSERT_TRUE(service->AcquireAsync(1, 2, lock::LockMode::kX).ok());
  ASSERT_TRUE(service->AcquireAsync(2, 1, lock::LockMode::kX).ok());

  const core::ResolutionReport report = service->RunDetectionPass();
  const DetectResult projected = ProjectReport(report);
  EXPECT_EQ(projected.report, report.ToString());
  EXPECT_EQ(projected.aborted, report.aborted);
  EXPECT_GE(projected.cycles_detected, 1u);
}

}  // namespace
}  // namespace twbg::txn
