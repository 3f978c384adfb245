// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Randomized N-thread stress suite for the sharded periodic
// ConcurrentLockService, with a replay oracle: because every lock-state
// mutation and its event emission happen atomically under the service's
// locks, the recorded event stream is a true linearization of the run.
// Replaying that stream op-by-op against the single-threaded
// TransactionManager must therefore reproduce the exact same grants,
// blocks, wakeups, deadlock victims and post-mortem counts — any
// divergence means the sharded engine tore an operation or the pass saw
// an inconsistent snapshot.
//
// Span and timing fields are excluded from the comparison: wait-span ids
// are per-shard domains in the sharded service (documented in
// concurrent_service.h), and pass durations are wall-clock.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <deque>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/bus.h"
#include "obs/sinks.h"
#include "txn/concurrent_service.h"

namespace twbg::txn {
namespace {

using enum lock::LockMode;

struct WorkloadConfig {
  size_t num_shards = 8;
  int workers = 4;
  int txns_per_worker = 40;
  int max_ops = 5;
  int resources = 40;
  uint64_t seed = 1;
};

// Zipf-skewed resource pick: squaring a uniform sample concentrates mass
// on low rids (the hot set) while the tail keeps shards busy.
lock::ResourceId PickResource(common::Rng& rng, int resources) {
  const double u = rng.NextDouble();
  return static_cast<lock::ResourceId>(1 + static_cast<int>(u * u * resources));
}

// One worker: run `txns_per_worker` transactions of 1..max_ops skewed
// acquires each, committing survivors (with occasional voluntary aborts).
void RunWorker(ConcurrentLockService& service, const WorkloadConfig& config,
               int worker, std::atomic<size_t>& committed) {
  common::Rng rng(config.seed * 7919 + static_cast<uint64_t>(worker));
  for (int i = 0; i < config.txns_per_worker; ++i) {
    const lock::TransactionId t = *service.Begin();
    bool dead = false;
    const int ops = 1 + static_cast<int>(rng.NextBelow(config.max_ops));
    for (int k = 0; k < ops && !dead; ++k) {
      const lock::ResourceId rid = PickResource(rng, config.resources);
      const lock::LockMode mode = lock::kRealModes[rng.NextBelow(5)];
      Status status = service.AcquireBlocking(t, rid, mode);
      if (status.IsAborted()) dead = true;
      // Other errors (conversion-policy rejections) skip the op, exactly
      // as they leave no trace in the recorded stream.
    }
    if (dead) continue;  // victim: already aborted, locks gone
    if (rng.NextBernoulli(0.05)) {
      EXPECT_TRUE(service.Abort(t).ok());
      continue;
    }
    // A transaction that returned from its last acquire is kActive, and
    // only blocked transactions can be chosen as victims — commit cannot
    // lose that race.
    Status status = service.Commit(t);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (status.ok()) ++committed;
  }
}

bool ComparedKind(obs::EventKind kind) {
  switch (kind) {
    case obs::EventKind::kTxnBegin:
    case obs::EventKind::kTxnCommit:
    case obs::EventKind::kTxnAbort:
    case obs::EventKind::kLockGrant:
    case obs::EventKind::kLockBlock:
    case obs::EventKind::kLockConvert:
    case obs::EventKind::kLockRelease:
    case obs::EventKind::kLockWakeup:
    case obs::EventKind::kUprReposition:
    case obs::EventKind::kPassStart:
    case obs::EventKind::kStep1:
    case obs::EventKind::kStep2:
    case obs::EventKind::kPassEnd:
    case obs::EventKind::kCycleResolved:
    case obs::EventKind::kCyclePostMortem:
      return true;
    default:  // kShardContention has no sequential counterpart; timing
              // and watchdog kinds are not emitted by either engine here
      return false;
  }
}

std::vector<obs::Event> Filtered(const std::deque<obs::Event>& events) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : events) {
    if (ComparedKind(e.kind)) out.push_back(e);
  }
  return out;
}

// Replays the recorded linearization against a sequential
// TransactionManager, asserting every op resolves identically, and
// returns the replay's own event recording for stream comparison.
void ReplayAndCompare(const std::deque<obs::Event>& recorded,
                      size_t expected_commits) {
  obs::EventBus replay_bus;
  obs::CollectorSink replay_sink;
  replay_bus.Subscribe(&replay_sink);
  TransactionManagerOptions options;
  options.detection_mode = DetectionMode::kPeriodic;
  options.cost_policy = CostPolicy::kLocksHeld;
  options.event_bus = &replay_bus;
  TransactionManager tm(options);

  size_t commits = 0;
  for (size_t i = 0; i < recorded.size(); ++i) {
    const obs::Event& e = recorded[i];
    switch (e.kind) {
      case obs::EventKind::kTxnBegin:
        ASSERT_EQ(*tm.Begin(), e.tid) << "event " << i;
        break;
      case obs::EventKind::kLockGrant:
      case obs::EventKind::kLockBlock:
      case obs::EventKind::kLockConvert: {
        Status r = tm.Acquire(e.tid, e.rid, e.mode);
        const bool granted = e.kind == obs::EventKind::kLockGrant ||
                             (e.kind == obs::EventKind::kLockConvert &&
                              e.a == 1);
        ASSERT_TRUE(granted ? r.ok() : r.IsWouldBlock())
            << "event " << i << ": " << r.ToString();
        break;
      }
      case obs::EventKind::kTxnCommit: {
        Status status = tm.Commit(e.tid);
        ASSERT_TRUE(status.ok()) << "event " << i << ": " << status.ToString();
        ++commits;
        break;
      }
      case obs::EventKind::kTxnAbort:
        // a == 1 victims are produced by the replayed detection passes
        // themselves; only voluntary aborts are replayed as ops.
        if (e.a == 0) {
          Status status = tm.Abort(e.tid);
          ASSERT_TRUE(status.ok())
              << "event " << i << ": " << status.ToString();
        }
        break;
      case obs::EventKind::kPassStart:
        if (e.a == 1) tm.RunDetection();
        break;
      default:
        break;  // emitted by the replay itself (wakeups, releases, ...)
    }
  }
  ASSERT_EQ(commits, expected_commits);

  // The replay must have emitted the recorded stream back, byte-for-byte
  // on every field that is defined to be comparable.
  const std::vector<obs::Event> want = Filtered(recorded);
  const std::vector<obs::Event> got = Filtered(replay_sink.events());
  ASSERT_EQ(want.size(), got.size());
  size_t victims = 0;
  size_t post_mortems = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    const obs::Event& w = want[i];
    const obs::Event& g = got[i];
    ASSERT_EQ(w.kind, g.kind) << "event " << i;
    ASSERT_EQ(w.tid, g.tid) << "event " << i;
    ASSERT_EQ(w.rid, g.rid) << "event " << i;
    ASSERT_EQ(w.mode, g.mode) << "event " << i;
    ASSERT_EQ(w.a, g.a) << "event " << i;
    ASSERT_EQ(w.b, g.b) << "event " << i;
    if (w.kind == obs::EventKind::kCycleResolved ||
        w.kind == obs::EventKind::kCyclePostMortem) {
      ASSERT_EQ(w.value, g.value) << "event " << i;  // the victim's cost
    }
    if (w.kind == obs::EventKind::kTxnAbort && w.a == 1) ++victims;
    if (w.kind == obs::EventKind::kCyclePostMortem) ++post_mortems;
  }
  // Redundant with the loop above but the headline properties deserve
  // their own assertion: identical victim count and post-mortem count.
  size_t replay_victims = 0;
  for (const obs::Event& e : replay_sink.events()) {
    if (e.kind == obs::EventKind::kTxnAbort && e.a == 1) ++replay_victims;
  }
  EXPECT_EQ(victims, replay_victims);
  EXPECT_EQ(post_mortems,
            replay_sink.Count(obs::EventKind::kCyclePostMortem));
}

void RunStressAndReplay(const WorkloadConfig& config) {
  obs::EventBus bus;
  obs::CollectorSink sink;
  bus.Subscribe(&sink);

  ConcurrentServiceOptions options;
  options.num_shards = config.num_shards;
  options.detection_mode = DetectionMode::kPeriodic;
  // The replay oracle depends on the stop-the-world linearization: a
  // pass's events must describe the live state at their stream position.
  // A pauseless pass detects over a sealed epoch that may trail the live
  // shards, so its stream is validated differently
  // (pauseless_service_test.cc).
  options.snapshot_strategy = SnapshotStrategy::kStopTheWorld;
  options.detection_period = std::chrono::microseconds(500);
  options.cost_policy = CostPolicy::kLocksHeld;
  options.event_bus = &bus;
  Result<std::unique_ptr<ConcurrentLockService>> service =
      ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::atomic<size_t> committed{0};
  {
    std::vector<std::thread> threads;
    for (int worker = 0; worker < config.workers; ++worker) {
      threads.emplace_back(RunWorker, std::ref(**service), std::cref(config),
                           worker, std::ref(committed));
    }
    for (std::thread& t : threads) t.join();
  }
  // One forced final pass so the replay exercises detection even when the
  // workers outran the detector period on this machine.
  (void)(*service)->RunDetectionPass();
  const size_t victims = (*service)->deadlock_victims();
  const uint64_t passes = (*service)->snapshot_epoch();
  service->reset();  // joins the detector thread; the stream is final

  EXPECT_GT(committed.load(), 0u);
  EXPECT_GT(passes, 0u);
  std::cout << "[          ] shards=" << config.num_shards
            << " workers=" << config.workers
            << " committed=" << committed.load() << " victims=" << victims
            << " passes=" << passes << "\n";
  SCOPED_TRACE(::testing::Message()
               << "shards=" << config.num_shards << " workers="
               << config.workers << " committed=" << committed.load()
               << " victims=" << victims << " passes=" << passes);
  ReplayAndCompare(sink.events(), committed.load());
}

TEST(ConcurrentStressTest, ShardedRunReplaysAgainstSequentialManager) {
  WorkloadConfig config;
  config.num_shards = 8;
  config.workers = 4;
  config.txns_per_worker = 150;
  config.seed = 20260806;
  RunStressAndReplay(config);
}

TEST(ConcurrentStressTest, FewShardsHighContentionReplay) {
  WorkloadConfig config;
  config.num_shards = 3;
  config.workers = 3;
  config.txns_per_worker = 200;
  config.resources = 6;  // hot: real deadlocks, real victim traffic
  config.max_ops = 4;
  config.seed = 424242;
  RunStressAndReplay(config);
}

// Guaranteed victim traffic through the replay: every round both workers
// hold their first lock before either requests the second (barrier), so a
// cross-deadlock forms every time and the detector thread must abort
// exactly one of the two for the round to finish.  The recorded stream
// then replays kTxnAbort(a=1) / kCycleResolved / kCyclePostMortem parity,
// not just grant-order parity.
TEST(ConcurrentStressTest, CrossingDeadlocksReplayWithVictims) {
  obs::EventBus bus;
  obs::CollectorSink sink;
  bus.Subscribe(&sink);
  ConcurrentServiceOptions options;
  options.num_shards = 4;
  options.detection_mode = DetectionMode::kPeriodic;
  // Replay oracle: see RunStressAndReplay.
  options.snapshot_strategy = SnapshotStrategy::kStopTheWorld;
  options.detection_period = std::chrono::microseconds(300);
  options.event_bus = &bus;
  Result<std::unique_ptr<ConcurrentLockService>> service =
      ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ConcurrentLockService& s = **service;

  constexpr int kRounds = 40;
  std::barrier sync(2);
  std::atomic<size_t> victims{0};
  std::atomic<size_t> commits{0};
  auto runner = [&](lock::ResourceId first, lock::ResourceId second) {
    for (int round = 0; round < kRounds; ++round) {
      const lock::TransactionId t = *s.Begin();
      Status held = s.AcquireBlocking(t, first, kX);
      bool alive = held.ok();
      ASSERT_TRUE(held.ok() || held.IsAborted()) << held.ToString();
      sync.arrive_and_wait();  // both firsts held: the cross is certain
      if (alive) {
        Status crossed = s.AcquireBlocking(t, second, kX);
        if (crossed.IsAborted()) {
          ++victims;
        } else {
          ASSERT_TRUE(crossed.ok()) << crossed.ToString();
          ASSERT_TRUE(s.Commit(t).ok());
          ++commits;
        }
      }
      sync.arrive_and_wait();  // round fully settled before the next one
    }
  };
  {
    std::thread a(runner, 1, 2);
    std::thread b(runner, 2, 1);
    a.join();
    b.join();
  }
  const size_t service_victims = s.deadlock_victims();
  service->reset();

  EXPECT_EQ(victims.load(), static_cast<size_t>(kRounds));
  EXPECT_EQ(commits.load(), static_cast<size_t>(kRounds));
  EXPECT_EQ(service_victims, static_cast<size_t>(kRounds));
  ReplayAndCompare(sink.events(), commits.load());
}

// Bus-less run: no observability mutex in play, so shards truly proceed
// independently.  Nothing to replay — the assertions are liveness (no
// hang), a consistent victim count, and live shard/pause accounting.
TEST(ConcurrentStressTest, UnobservedShardedRunCompletes) {
  ConcurrentServiceOptions options;
  options.num_shards = 16;
  options.detection_mode = DetectionMode::kPeriodic;
  options.detection_period = std::chrono::microseconds(500);
  Result<std::unique_ptr<ConcurrentLockService>> service =
      ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->num_shards(), 16u);

  WorkloadConfig config;
  config.num_shards = 16;
  config.workers = 8;
  config.txns_per_worker = 25;
  config.seed = 99;
  std::atomic<size_t> committed{0};
  std::vector<std::thread> threads;
  for (int worker = 0; worker < config.workers; ++worker) {
    threads.emplace_back(RunWorker, std::ref(**service), std::cref(config),
                         worker, std::ref(committed));
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(committed.load(), 0u);

  // Force one final pass so epoch/pause accounting is visibly live even
  // if the period never elapsed under this scheduler.
  (void)(*service)->RunDetectionPass();
  EXPECT_GE((*service)->snapshot_epoch(), 1u);
  EXPECT_GE((*service)->pause_times_ns().size(), 1u);
  uint64_t total_ops = 0;
  for (size_t s = 0; s < (*service)->num_shards(); ++s) {
    total_ops += (*service)->shard_stats(s).ops;
  }
  EXPECT_GT(total_ops, 0u);
}

}  // namespace
}  // namespace twbg::txn
