// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// End-to-end observability: every event kind in the taxonomy is actually
// produced by some scenario, the simulator surfaces trace drops, and the
// JSONL exporter writes one parseable object per event.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/factory.h"
#include "core/cost_table.h"
#include "core/examples_catalog.h"
#include "core/periodic_detector.h"
#include "core/script.h"
#include "obs/bus.h"
#include "obs/sinks.h"
#include "sim/simulator.h"
#include "txn/concurrent_service.h"
#include "txn/transaction_manager.h"

namespace twbg {
namespace {

void InsertKinds(const obs::CollectorSink& sink,
                 std::set<obs::EventKind>* kinds) {
  for (const obs::Event& event : sink.events()) kinds->insert(event.kind);
}

// The scenarios together must exercise the whole taxonomy:
//  (a) a TransactionManager lifecycle with a periodic TDR-1 resolution,
//  (b) Example 4.1 (conversions + a TDR-2 queue repositioning),
//  (c) a simulator run with a deliberately blind strategy (restarts,
//      wait-ends, detector misses) and a hair-trigger watchdog
//      (starvation and convoy alerts),
//  (d) a sharded ConcurrentLockService pass (shard-contention counters
//      and, pauselessly, snapshot publishes),
//  (e) the robustness layer (deadlines, admission, injected faults),
//  (f) graceful degradation (pause budget busted),
//  (g) a pauseless pass whose change-list goes stale in the
//      seal-to-apply window (resolution rejections),
//  (h) the closed-loop period controller retuning the simulator's
//      detection schedule (period retunes).
TEST(ObsIntegrationTest, EveryEventKindIsEmittedSomewhere) {
  std::set<obs::EventKind> kinds;

  {  // (a) lifecycle + TDR-1 victim through the transaction manager.
    obs::EventBus bus;
    obs::CollectorSink sink;
    bus.Subscribe(&sink);
    txn::TransactionManagerOptions options;
    options.event_bus = &bus;
    txn::TransactionManager tm(options);
    const lock::TransactionId t1 = *tm.Begin();
    const lock::TransactionId t2 = *tm.Begin();
    const lock::TransactionId t3 = *tm.Begin();
    ASSERT_TRUE(tm.Acquire(t1, 1, lock::LockMode::kX).ok());
    ASSERT_TRUE(tm.Acquire(t2, 2, lock::LockMode::kX).ok());
    ASSERT_TRUE(tm.Acquire(t1, 2, lock::LockMode::kX).IsWouldBlock());
    ASSERT_TRUE(
        tm.Acquire(t2, 1, lock::LockMode::kX).IsWouldBlock());  // deadlock
    core::ResolutionReport report = tm.RunDetection();
    EXPECT_GT(report.cycles_detected, 0u);
    EXPECT_FALSE(report.aborted.empty());
    ASSERT_TRUE(tm.Abort(t3).ok());  // voluntary abort
    // Whichever of t1/t2 survived can now run to commit.
    const lock::TransactionId survivor =
        tm.Find(t1)->state == txn::TxnState::kAborted ? t2 : t1;
    ASSERT_TRUE(tm.Commit(survivor).ok());
    InsertKinds(sink, &kinds);
  }

  {  // (b) conversions and TDR-2 repositioning (Example 4.1).
    obs::EventBus bus;
    obs::CollectorSink sink;
    bus.Subscribe(&sink);
    lock::LockManager manager;
    manager.set_event_bus(&bus);
    core::BuildExample41(manager);
    core::CostTable costs;
    core::DetectorOptions options;
    options.event_bus = &bus;
    core::PeriodicDetector detector(options);
    core::ResolutionReport report = detector.RunPass(manager, costs);
    EXPECT_FALSE(report.repositioned.empty());  // the TDR-2 happened
    EXPECT_GT(sink.Count(obs::EventKind::kLockConvert), 0u);
    EXPECT_GT(sink.Count(obs::EventKind::kUprReposition), 0u);
    InsertKinds(sink, &kinds);
  }

  {  // (c) a blind strategy: misses, restarts and completed waits.
    sim::SimConfig config;
    config.workload.seed = 3;
    config.workload.num_transactions = 60;
    config.workload.concurrency = 6;
    config.workload.num_resources = 4;
    config.workload.mode_weights = {0, 0, 0.3, 0, 0.7};
    config.detection_period = 5;
    config.enable_watchdog = true;
    // Hair-trigger thresholds so this tiny hot-spot workload reliably
    // produces both alert kinds.
    config.watchdog.starvation_age = 8;
    config.watchdog.starvation_restarts = 1;
    config.watchdog.convoy_depth = 2;
    config.watchdog.check_interval = 1;
    sim::Simulator sim(config, baselines::MakeStrategy("none"));
    obs::CollectorSink sink;
    sim.event_bus().Subscribe(&sink);
    sim::SimMetrics metrics = sim.Run();
    EXPECT_EQ(metrics.committed, 60u);
    EXPECT_GT(metrics.missed_deadlocks, 0u);
    EXPECT_GT(sink.Count(obs::EventKind::kDetectorMiss), 0u);
    EXPECT_GT(sink.Count(obs::EventKind::kTxnRestart), 0u);
    EXPECT_GT(sink.Count(obs::EventKind::kWaitEnd), 0u);
    EXPECT_GT(sink.Count(obs::EventKind::kStarvation), 0u);
    EXPECT_GT(sink.Count(obs::EventKind::kConvoy), 0u);
    EXPECT_EQ(metrics.starvation_alerts,
              sink.Count(obs::EventKind::kStarvation));
    EXPECT_EQ(metrics.convoy_alerts, sink.Count(obs::EventKind::kConvoy));
    InsertKinds(sink, &kinds);
  }

  {  // (d) the sharded service publishes per-shard contention counters
     //     on every detection pass.
    obs::EventBus bus;
    obs::CollectorSink sink;
    bus.Subscribe(&sink);
    txn::ConcurrentServiceOptions options;
    options.num_shards = 4;
    options.detection_mode = txn::DetectionMode::kPeriodic;
    options.event_bus = &bus;
    auto service = txn::ConcurrentLockService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    const lock::TransactionId t = *(*service)->Begin();
    ASSERT_TRUE((*service)->AcquireBlocking(t, 1, lock::LockMode::kX).ok());
    (void)(*service)->RunDetectionPass();
    ASSERT_TRUE((*service)->Commit(t).ok());
    EXPECT_EQ(sink.Count(obs::EventKind::kShardContention),
              (*service)->num_shards());
    InsertKinds(sink, &kinds);
  }

  {  // (e) the robustness layer in the simulator: deadline expiries,
     //     admission rejections and injected faults.
    sim::SimConfig config;
    config.workload.seed = 11;
    config.workload.num_transactions = 40;
    config.workload.concurrency = 6;
    config.workload.num_resources = 3;
    config.workload.mode_weights = {0, 0, 0.2, 0, 0.8};
    config.detection_period = 0;  // the deadline layer is the resolver
    config.robustness.deadline.lock_wait = 3;
    config.robustness.deadline.abort_after = 2;
    config.robustness.deadline.txn_budget = 400;
    config.robustness.admission.max_inflight_txns = 4;
    robustness::Fault stall;
    stall.kind = robustness::FaultKind::kStallShard;
    stall.at = 2;
    stall.duration = 3;
    config.fault_plan.faults.push_back(stall);
    sim::Simulator sim(config, baselines::MakeStrategy("none"));
    obs::CollectorSink sink;
    sim.event_bus().Subscribe(&sink);
    sim::SimMetrics metrics = sim.Run();
    EXPECT_EQ(metrics.committed, 40u);
    EXPECT_GT(sink.Count(obs::EventKind::kDeadlineExpired), 0u);
    EXPECT_GT(sink.Count(obs::EventKind::kAdmissionReject), 0u);
    EXPECT_GT(sink.Count(obs::EventKind::kFaultInjected), 0u);
    EXPECT_EQ(metrics.deadline_expired_waits,
              sink.Count(obs::EventKind::kDeadlineExpired));
    EXPECT_EQ(metrics.admission_rejects,
              sink.Count(obs::EventKind::kAdmissionReject));
    EXPECT_EQ(metrics.faults_injected,
              sink.Count(obs::EventKind::kFaultInjected));
    InsertKinds(sink, &kinds);
  }

  {  // (f) graceful degradation: a one-nanosecond pause budget degrades
     //     the sharded engine on its first full pass.
    obs::EventBus bus;
    obs::CollectorSink sink;
    bus.Subscribe(&sink);
    txn::ConcurrentServiceOptions options;
    options.num_shards = 2;
    options.detection_mode = txn::DetectionMode::kPeriodic;
    options.event_bus = &bus;
    options.robustness.degradation.pause_budget_ns = 1;
    options.robustness.degradation.degraded_passes = 2;
    auto service = txn::ConcurrentLockService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    const lock::TransactionId t = *(*service)->Begin();
    ASSERT_TRUE((*service)->AcquireBlocking(t, 1, lock::LockMode::kX).ok());
    (void)(*service)->RunDetectionPass();  // full pass: busts the budget
    EXPECT_EQ(sink.Count(obs::EventKind::kDegraded), 1u);
    EXPECT_EQ((*service)->degraded_passes_remaining(), 2u);
    ASSERT_TRUE((*service)->Commit(t).ok());
    InsertKinds(sink, &kinds);
  }

  {  // (g) a pauseless (kEpochDelta) pass whose resolution command goes
     //     stale in the seal-to-apply window: a bystander queued on a
     //     cycle resource aborts between seal and apply, bumping the
     //     resource's version stamp, so validation drops the command
     //     (kResolutionRejected) and the next pass re-resolves it.
    obs::EventBus bus;
    obs::CollectorSink sink;
    bus.Subscribe(&sink);
    txn::ConcurrentServiceOptions options;
    options.num_shards = 2;
    options.detection_mode = txn::DetectionMode::kPeriodic;
    options.event_bus = &bus;
    txn::ConcurrentLockService* raw = nullptr;
    lock::TransactionId bystander = 0;
    std::atomic<int> hook_fires{0};
    options.post_seal_hook = [&] {
      if (hook_fires.fetch_add(1) == 0) {
        EXPECT_TRUE(raw->Abort(bystander).ok());
      }
    };
    auto service = txn::ConcurrentLockService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    raw = service->get();

    const lock::TransactionId t1 = *raw->Begin();
    const lock::TransactionId t2 = *raw->Begin();
    bystander = *raw->Begin();
    ASSERT_TRUE(raw->AcquireBlocking(t1, 1, lock::LockMode::kX).ok());
    ASSERT_TRUE(raw->AcquireBlocking(t2, 2, lock::LockMode::kX).ok());

    std::atomic<int> aborted_waits{0};
    auto block = [&](lock::TransactionId t, lock::ResourceId rid) {
      Status status = raw->AcquireBlocking(t, rid, lock::LockMode::kX);
      if (status.IsAborted()) {
        ++aborted_waits;
        return;
      }
      ASSERT_TRUE(status.ok()) << status.ToString();
      ASSERT_TRUE(raw->Commit(t).ok());
    };
    auto wait_blocked = [&](lock::TransactionId t) {
      while (*raw->State(t) != txn::TxnState::kBlocked) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    std::thread a(block, t1, 2);
    wait_blocked(t1);
    std::thread b(block, t2, 1);
    wait_blocked(t2);
    std::thread c(block, bystander, 1);  // queued behind T1 on R1
    wait_blocked(bystander);

    core::ResolutionReport first = raw->RunDetectionPass();
    EXPECT_EQ(first.rejected, 1u);
    EXPECT_TRUE(first.aborted.empty());
    core::ResolutionReport second = raw->RunDetectionPass();
    EXPECT_EQ(second.rejected, 0u);
    EXPECT_EQ(second.aborted.size(), 1u);
    a.join();
    b.join();
    c.join();
    EXPECT_EQ(aborted_waits.load(), 2);  // the bystander + the victim
    EXPECT_EQ(raw->deadlock_victims(), 1u);
    EXPECT_EQ(raw->resolutions_rejected(), 1u);
    EXPECT_EQ(sink.Count(obs::EventKind::kSnapshotPublish),
              2 * options.num_shards);
    EXPECT_EQ(sink.Count(obs::EventKind::kResolutionRejected), 1u);
    InsertKinds(sink, &kinds);
  }

  {  // (h) the closed-loop scheduler: an EWMA policy over a
     //     deadlock-prone workload moves the period, and every retune is
     //     mirrored between the bus and the SimMetrics counters.
    sim::SimConfig config;
    config.workload.seed = 5;
    config.workload.num_transactions = 60;
    config.workload.concurrency = 6;
    config.workload.num_resources = 4;
    config.workload.mode_weights = {0, 0, 0.2, 0, 0.8};
    config.detection_period = 4;
    config.scheduler.policy = sched::SchedulerPolicy::kEwmaRate;
    config.scheduler.min_period = 2;
    config.scheduler.max_period = 64;
    sim::Simulator sim(config, baselines::MakeStrategy("hwtwbg-periodic"));
    obs::CollectorSink sink;
    sim.event_bus().Subscribe(&sink);
    sim::SimMetrics metrics = sim.Run();
    EXPECT_EQ(metrics.committed, 60u);
    EXPECT_GT(metrics.period_retunes, 0u);
    EXPECT_EQ(metrics.period_retunes,
              sink.Count(obs::EventKind::kPeriodRetuned));
    InsertKinds(sink, &kinds);
  }

  for (size_t i = 0; i < obs::kNumEventKinds; ++i) {
    EXPECT_TRUE(kinds.count(static_cast<obs::EventKind>(i)))
        << "kind never emitted: "
        << obs::ToString(static_cast<obs::EventKind>(i));
  }
}

// Each TDR-2 a sharded pass applies reaches the service bus as exactly one
// kUprReposition, right before its kCycleResolved, under either pass
// strategy and shard count: the stop-the-world walk emits it through the
// shard's LockManager, the pauseless walk through the mirror host onto the
// local bus whose validated decisions the apply replays.
TEST(ObsIntegrationTest, ServicePassEmitsOneUprRepositionPerTdr2) {
  using lock::LockMode;
  using lock::RequestOutcome;
  for (const txn::SnapshotStrategy strategy :
       {txn::SnapshotStrategy::kEpochDelta,
        txn::SnapshotStrategy::kStopTheWorld}) {
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      obs::EventBus bus;
      obs::CollectorSink sink;
      bus.Subscribe(&sink);
      txn::ConcurrentServiceOptions options;
      options.num_shards = shards;
      options.detection_mode = txn::DetectionMode::kPeriodic;
      options.snapshot_strategy = strategy;
      options.event_bus = &bus;
      auto service = txn::ConcurrentLockService::Create(options);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      txn::ConcurrentLockService& s = **service;
      // scenarios/tdr2_no_abort.twbg: moving T8 behind T1 on R2 dissolves
      // the cycle without aborting anyone.
      for (lock::TransactionId t = 1; t <= 9; ++t) ASSERT_EQ(*s.Begin(), t);
      const struct {
        lock::TransactionId tid;
        lock::ResourceId rid;
        LockMode mode;
        RequestOutcome outcome;
      } requests[] = {{7, 2, LockMode::kIS, RequestOutcome::kGranted},
                      {1, 1, LockMode::kX, RequestOutcome::kGranted},
                      {8, 2, LockMode::kX, RequestOutcome::kBlocked},
                      {9, 2, LockMode::kIX, RequestOutcome::kBlocked},
                      {7, 1, LockMode::kS, RequestOutcome::kBlocked},
                      {1, 2, LockMode::kS, RequestOutcome::kBlocked}};
      for (const auto& r : requests) {
        ASSERT_EQ(*s.AcquireAsync(r.tid, r.rid, r.mode), r.outcome);
      }
      const size_t before = sink.events().size();
      const core::ResolutionReport report = s.RunDetectionPass();
      ASSERT_EQ(report.repositioned, std::vector<lock::ResourceId>{2});
      EXPECT_TRUE(report.aborted.empty());
      std::vector<obs::Event> repositions;
      for (size_t i = before; i < sink.events().size(); ++i) {
        const obs::Event& event = sink.events()[i];
        if (event.kind != obs::EventKind::kUprReposition) continue;
        repositions.push_back(event);
        ASSERT_LT(i + 1, sink.events().size());
        EXPECT_EQ(sink.events()[i + 1].kind,
                  obs::EventKind::kCycleResolved);
      }
      ASSERT_EQ(repositions.size(), 1u)
          << "strategy " << static_cast<int>(strategy) << ", " << shards
          << " shards";
      EXPECT_EQ(repositions[0].tid, 1u);  // the junction
      EXPECT_EQ(repositions[0].rid, 2u);
    }
  }
}

TEST(ObsIntegrationTest, SimulatorSurfacesTraceDrops) {
  sim::SimConfig config;
  config.workload.seed = 7;
  config.workload.num_transactions = 60;
  config.workload.concurrency = 6;
  config.workload.num_resources = 12;
  config.record_trace = true;
  config.trace_capacity = 4;  // far too small on purpose
  sim::Simulator sim(config, baselines::MakeStrategy("hwtwbg-periodic"));
  sim::SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.committed, 60u);
  EXPECT_GT(metrics.trace_dropped, 0u);
  EXPECT_EQ(metrics.trace_dropped, sim.trace().dropped());
  EXPECT_LE(sim.trace().events().size(), 4u);
  // The dropped count appears in the one-line report.
  EXPECT_NE(metrics.ToString().find("trace_dropped="), std::string::npos);
}

TEST(ObsIntegrationTest, ScriptRunnerStreamsParseableJsonl) {
  const std::string path = ::testing::TempDir() + "twbg_obs_events.jsonl";
  core::ScriptRunner runner;
  ASSERT_TRUE(runner.StreamEventsTo(path).ok());
  std::string out;
  ASSERT_TRUE(runner
                  .ExecuteScript("acquire 1 1 S\n"
                                 "acquire 2 1 X\n"
                                 "acquire 3 2 S\n"
                                 "acquire 1 2 X\n"
                                 "acquire 3 1 S\n"
                                 "detect\n"
                                 "obs\n",
                                 &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("jsonl:"), std::string::npos) << out;

  // Flush by streaming elsewhere is not needed: `obs` flushed the sink.
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  size_t lines = 0;
  bool saw_pass_end = false;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, file) != nullptr) {
    const std::string line(buffer);
    ++lines;
    EXPECT_EQ(line.rfind("{\"seq\":", 0), 0u) << line;
    EXPECT_NE(line.find("\"kind\":\""), std::string::npos) << line;
    EXPECT_EQ(line[line.size() - 2], '}') << line;  // "...}\n"
    if (line.find("\"kind\":\"pass_end\"") != std::string::npos) {
      saw_pass_end = true;
    }
  }
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_GT(lines, 5u);
  EXPECT_TRUE(saw_pass_end);
}

}  // namespace
}  // namespace twbg
