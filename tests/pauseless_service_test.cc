// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Pauseless (kEpochDelta) periodic detection: report parity against the
// stop-the-world strategy and the sequential manager on a quiesced
// table, deterministic stale-command injection through the seal-to-apply
// window (post_seal_hook), and fault-injected chaos with a live detector
// thread.  The stale-command tests pin the paper's safety story: a
// rejected command is re-resolved within one extra pass, a command whose
// cycle dissolved in the window never produces a phantom victim, and no
// transaction is ever double-victimized.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/graph_builder.h"
#include "lock/lock_manager.h"
#include "obs/bus.h"
#include "obs/sinks.h"
#include "obs/span.h"
#include "obs/span_sinks.h"
#include "txn/concurrent_service.h"
#include "txn/epoch_snapshot.h"
#include "txn/robustness/robustness.h"
#include "txn/transaction_manager.h"

namespace twbg::txn {
namespace {

using enum lock::LockMode;

// Graph-cache hit counts depend on how a table was populated (live
// journals vs. folded mirrors), so cross-engine report comparisons strip
// the cache line; everything else must match byte-for-byte.
std::string StripCacheLines(const std::string& s) {
  std::istringstream in(s);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("graph-cache:") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

void WaitUntilBlocked(ConcurrentLockService& service,
                      lock::TransactionId tid) {
  while (*service.State(tid) != TxnState::kBlocked) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Builds two disjoint deadlocks with deterministic tids and block order —
// a 2-cycle (T1 <-> T2 over R1/R2) and a 3-cycle (T3 -> T4 -> T5 -> T3
// over R3/R4/R5) — runs one pass, lets every thread finish, and returns
// the report.  Exactly two victims (one per cycle); the survivors cascade
// to commit once their grants arrive.  With `bystanders`, that many
// transactions begin first (shifting the cycle tids up) and each holds
// two uncontended locks through the pass.
void BuildCyclesAndRunPass(ConcurrentLockService& s,
                           core::ResolutionReport* report, int* victims_out,
                           int bystanders = 0) {
  std::vector<lock::TransactionId> idle;
  for (int b = 0; b < bystanders; ++b) {
    idle.push_back(*s.Begin());
    const auto rid = static_cast<lock::ResourceId>(100 + 2 * b);
    ASSERT_TRUE(s.AcquireBlocking(idle.back(), rid, kX).ok());
    ASSERT_TRUE(s.AcquireBlocking(idle.back(), rid + 1, kS).ok());
  }
  const lock::TransactionId t1 = *s.Begin();
  const lock::TransactionId t2 = *s.Begin();
  const lock::TransactionId t3 = *s.Begin();
  const lock::TransactionId t4 = *s.Begin();
  const lock::TransactionId t5 = *s.Begin();
  ASSERT_TRUE(s.AcquireBlocking(t1, 1, kX).ok());
  ASSERT_TRUE(s.AcquireBlocking(t2, 2, kX).ok());
  ASSERT_TRUE(s.AcquireBlocking(t3, 3, kX).ok());
  ASSERT_TRUE(s.AcquireBlocking(t4, 4, kX).ok());
  ASSERT_TRUE(s.AcquireBlocking(t5, 5, kX).ok());

  std::atomic<int> victims{0};
  auto block = [&s, &victims](lock::TransactionId t, lock::ResourceId rid) {
    Status status = s.AcquireBlocking(t, rid, kX);
    if (status.IsAborted()) {
      ++victims;
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(s.Commit(t).ok());
  };
  std::vector<std::thread> threads;
  auto spawn = [&](lock::TransactionId t, lock::ResourceId rid) {
    threads.emplace_back(block, t, rid);
    WaitUntilBlocked(s, t);
  };
  spawn(t1, 2);
  spawn(t2, 1);
  spawn(t3, 4);
  spawn(t4, 5);
  spawn(t5, 3);

  *report = s.RunDetectionPass();
  for (std::thread& thread : threads) thread.join();
  *victims_out = victims.load();
  for (lock::TransactionId t : idle) ASSERT_TRUE(s.Commit(t).ok());
}

ConcurrentServiceOptions QuiescedOptions(SnapshotStrategy strategy) {
  ConcurrentServiceOptions options;
  options.num_shards = 4;
  options.detection_mode = DetectionMode::kPeriodic;
  options.snapshot_strategy = strategy;
  options.cost_policy = CostPolicy::kLocksHeld;
  return options;
}

// The acceptance bar for the pauseless rewrite: on a quiesced table the
// epoch-snapshot pass and the stop-the-world pass produce byte-identical
// resolution reports, and both match the sequential manager running the
// same schedule.
TEST(PauselessServiceTest, QuiescedReportParityAcrossEngines) {
  core::ResolutionReport pauseless_report;
  int pauseless_victims = 0;
  {
    auto service =
        ConcurrentLockService::Create(QuiescedOptions(SnapshotStrategy::kEpochDelta));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    BuildCyclesAndRunPass(**service, &pauseless_report, &pauseless_victims);
    EXPECT_EQ((*service)->publish_pause_times_ns().size(),
              (*service)->num_shards());
    EXPECT_EQ((*service)->detection_lag_ns().size(), 1u);
    EXPECT_TRUE((*service)->sweep_pause_times_ns().empty());
    EXPECT_EQ((*service)->pause_times_ns().size(), 1u);
    EXPECT_EQ((*service)->resolutions_rejected(), 0u);
  }

  core::ResolutionReport stw_report;
  int stw_victims = 0;
  {
    auto service = ConcurrentLockService::Create(
        QuiescedOptions(SnapshotStrategy::kStopTheWorld));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    BuildCyclesAndRunPass(**service, &stw_report, &stw_victims);
    EXPECT_TRUE((*service)->publish_pause_times_ns().empty());
    EXPECT_TRUE((*service)->detection_lag_ns().empty());
  }

  // The same schedule on the sequential manager (blocked acquires return
  // kWouldBlock instead of parking a thread).
  TransactionManagerOptions seq_options;
  seq_options.detection_mode = DetectionMode::kPeriodic;
  seq_options.cost_policy = CostPolicy::kLocksHeld;
  TransactionManager tm(seq_options);
  std::vector<lock::TransactionId> tids;
  for (int i = 0; i < 5; ++i) tids.push_back(*tm.Begin());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        tm.Acquire(tids[i], static_cast<lock::ResourceId>(i + 1), kX).ok());
  }
  ASSERT_TRUE(tm.Acquire(tids[0], 2, kX).IsWouldBlock());
  ASSERT_TRUE(tm.Acquire(tids[1], 1, kX).IsWouldBlock());
  ASSERT_TRUE(tm.Acquire(tids[2], 4, kX).IsWouldBlock());
  ASSERT_TRUE(tm.Acquire(tids[3], 5, kX).IsWouldBlock());
  ASSERT_TRUE(tm.Acquire(tids[4], 3, kX).IsWouldBlock());
  core::ResolutionReport seq_report = tm.RunDetection();

  EXPECT_EQ(pauseless_victims, 2);
  EXPECT_EQ(stw_victims, 2);
  EXPECT_EQ(pauseless_report.rejected, 0u);
  EXPECT_EQ(pauseless_report.ToString(), stw_report.ToString());
  EXPECT_EQ(StripCacheLines(pauseless_report.ToString()),
            StripCacheLines(seq_report.ToString()));
}

// A pauseless pass walks the mirrors, which hold the waiter-bearing
// resources only, so a transaction whose every lock is uncontended is not
// in its TST.  Everything the pass decides and does is the same as the
// stop-the-world pass over the whole table; only n and the walk's steps
// are lower, by exactly one per such bystander (a vertex with no edges
// costs the walk one step).
TEST(PauselessServiceTest, BystandersLeaveDecisionsUnchanged) {
  constexpr int kBystanders = 2;
  auto run = [](SnapshotStrategy strategy, core::ResolutionReport* report) {
    ConcurrentServiceOptions options = QuiescedOptions(strategy);
    options.detector.collect_post_mortems = true;
    auto service = ConcurrentLockService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    int victims = 0;
    BuildCyclesAndRunPass(**service, report, &victims, kBystanders);
    EXPECT_EQ(victims, 2);
    EXPECT_TRUE((*service)->CheckInvariants(/*deep=*/true).ok());
  };
  core::ResolutionReport pauseless;
  core::ResolutionReport stw;
  run(SnapshotStrategy::kEpochDelta, &pauseless);
  run(SnapshotStrategy::kStopTheWorld, &stw);

  EXPECT_EQ(pauseless.cycles_detected, 2u);
  EXPECT_EQ(pauseless.cycles_detected, stw.cycles_detected);
  ASSERT_EQ(pauseless.decisions.size(), stw.decisions.size());
  for (size_t i = 0; i < stw.decisions.size(); ++i) {
    EXPECT_EQ(pauseless.decisions[i].ToString(), stw.decisions[i].ToString());
  }
  EXPECT_EQ(pauseless.aborted, stw.aborted);
  EXPECT_EQ(pauseless.spared, stw.spared);
  EXPECT_EQ(pauseless.granted, stw.granted);
  EXPECT_EQ(pauseless.repositioned, stw.repositioned);
  ASSERT_EQ(stw.post_mortems.size(), 2u);
  ASSERT_EQ(pauseless.post_mortems.size(), stw.post_mortems.size());
  for (size_t i = 0; i < stw.post_mortems.size(); ++i) {
    EXPECT_EQ(pauseless.post_mortems[i].ToString(),
              stw.post_mortems[i].ToString());
  }
  EXPECT_EQ(pauseless.num_edges, stw.num_edges);
  EXPECT_EQ(stw.num_transactions, 5u + kBystanders);
  EXPECT_EQ(stw.num_transactions - pauseless.num_transactions, kBystanders);
  EXPECT_EQ(stw.steps - pauseless.steps, kBystanders);
}

// Ascending rids of `table`'s waiter-bearing resources.
std::vector<lock::ResourceId> WaiterBearingRids(const lock::LockTable& table) {
  std::vector<lock::ResourceId> rids;
  for (const auto& [rid, state] : table) {
    if (state.HasWaiter()) rids.push_back(rid);
  }
  return rids;
}

// The mirror contract after a Fold: the mirror's resources are exactly
// the live waiter-bearing ones, stamp for stamp; its wait records are
// exactly the live blocked transactions' (tids 1..max_tid are checked);
// and Step 1 draws the same edges from it as from the live table.
void ExpectMirrorIsLiveWaiterState(const ShardSnapshot& snapshot,
                                   const lock::LockManager& live,
                                   lock::TransactionId max_tid,
                                   core::GraphBuilder& mirror_edges,
                                   core::GraphBuilder& live_edges) {
  std::vector<lock::ResourceId> mirrored;
  for (const auto& [rid, state] : snapshot.table()) {
    mirrored.push_back(rid);
    const lock::ResourceState* theirs = live.table().Find(rid);
    ASSERT_NE(theirs, nullptr) << "R" << rid;
    EXPECT_EQ(state.version(), theirs->version()) << "R" << rid;
    EXPECT_EQ(state.ToString(), theirs->ToString());
  }
  ASSERT_EQ(mirrored, WaiterBearingRids(live.table()));

  size_t records = 0;
  for (lock::TransactionId tid = 1; tid <= max_tid; ++tid) {
    const lock::TxnLockInfo* mine = snapshot.FindWaitInfo(tid);
    if (!live.IsBlocked(tid)) {
      EXPECT_EQ(mine, nullptr) << "T" << tid;
      continue;
    }
    ++records;
    ASSERT_NE(mine, nullptr) << "T" << tid;
    const lock::TxnLockInfo& theirs = *live.Info(tid);
    EXPECT_EQ(mine->blocked_on, theirs.blocked_on);
    EXPECT_EQ(mine->blocked_mode, theirs.blocked_mode);
    EXPECT_EQ(mine->wait_span, theirs.wait_span);
    EXPECT_EQ(mine->wait_started, theirs.wait_started);
  }
  EXPECT_EQ(records, live.NumBlocked());

  mirror_edges.Refresh(snapshot.table());
  live_edges.Refresh(live.table());
  EXPECT_TRUE(mirror_edges.edge_lists() == live_edges.edge_lists());
}

// Random single-shard schedules over all five modes — conversions,
// deadline cancels, whole and per-resource (cross-shard style) aborts,
// Step 3 TDR-2 + Reschedule on the live table, and walk-side TDR-2s on
// the mirror that the validated apply rejects — with Capture+Fold at
// random points, the mirror contract checked after every Fold.  One
// schedule outruns the journal so the full-sweep capture runs too.
TEST(ShardSnapshotTest, MirrorIsTheLiveWaiterStateAfterEveryFold) {
  constexpr lock::TransactionId kTxns = 8;
  constexpr lock::ResourceId kRids = 6;
  common::Rng rng(20261018);
  size_t folds = 0;
  size_t full_sweeps = 0;
  size_t conversions = 0;
  size_t cancels = 0;
  size_t forgets = 0;
  size_t live_tdr2s = 0;
  size_t mirror_tdr2s = 0;
  for (int schedule = 0; schedule < 1000; ++schedule) {
    lock::LockManager lm;
    ShardSnapshot snapshot;
    core::GraphBuilder mirror_edges;
    core::GraphBuilder live_edges;
    auto publish = [&] {
      const ShardCaptureStats stats = snapshot.Capture(lm);
      full_sweeps += stats.full_sweep ? 1 : 0;
      snapshot.Fold();
      ++folds;
      ExpectMirrorIsLiveWaiterState(snapshot, lm, kTxns + 5, mirror_edges,
                                    live_edges);
      return stats;
    };
    // The first (rid, junction) at which `table` admits a TDR-2, scanning
    // resources from `start`; junction 0 when there is none.
    auto tdr2_at = [&](const lock::LockTable& table, lock::ResourceId start) {
      for (lock::ResourceId k = 0; k < kRids; ++k) {
        const lock::ResourceId rid = 1 + (start - 1 + k) % kRids;
        const lock::ResourceState* state = table.Find(rid);
        if (state == nullptr) continue;
        for (const lock::QueueEntry& q : state->queue()) {
          if (state->ComputeAvSt(q.tid).ok()) return std::pair(rid, q.tid);
        }
      }
      return std::pair(lock::ResourceId{0}, lock::kInvalidTransaction);
    };
    const int ops = 60 + static_cast<int>(rng.NextBelow(60));
    for (int op = 0; op < ops; ++op) {
      if (schedule == 0 && op == ops / 2) {
        // A mirrored resource that will lose its waiter (`lost`) and one
        // that will gain one (`fresh`) while the journal is outrun:
        // entries on alternating resources do not coalesce, so the
        // capture must sweep, and the sweep must erase `lost` and copy
        // `fresh`.
        const lock::ResourceId lost = kRids + 5;
        const lock::ResourceId fresh = kRids + 6;
        ASSERT_TRUE(lm.Acquire(kTxns + 2, lost, kX).ok());
        ASSERT_TRUE(lm.Acquire(kTxns + 3, lost, kX).ok());  // blocks
        EXPECT_FALSE(publish().full_sweep);
        ASSERT_NE(snapshot.table().Find(lost), nullptr);
        for (int i = 0; i < 70000; ++i) {
          const lock::ResourceId rid = kRids + 1 + i % 4;
          ASSERT_TRUE(lm.Acquire(kTxns + 1, rid, kX).ok());
          lm.ReleaseAll(kTxns + 1);
        }
        EXPECT_EQ(lm.ReleaseAll(kTxns + 2),
                  (std::vector<lock::TransactionId>{kTxns + 3}));
        ASSERT_TRUE(lm.Acquire(kTxns + 4, fresh, kS).ok());
        ASSERT_TRUE(lm.Acquire(kTxns + 5, fresh, kX).ok());  // blocks
        EXPECT_TRUE(publish().full_sweep);
        EXPECT_EQ(snapshot.table().Find(lost), nullptr);
        EXPECT_NE(snapshot.table().Find(fresh), nullptr);
        if (HasFatalFailure()) return;
        lm.ReleaseAll(kTxns + 3);
        lm.ReleaseAll(kTxns + 4);
        lm.ReleaseAll(kTxns + 5);
        continue;
      }
      const auto tid = static_cast<lock::TransactionId>(
          1 + rng.NextBelow(kTxns));
      const auto rid = static_cast<lock::ResourceId>(1 + rng.NextBelow(kRids));
      const uint64_t dice = rng.NextBelow(100);
      if (dice < 55) {
        const lock::ResourceState* state = lm.table().Find(rid);
        conversions += state != nullptr && state->FindHolder(tid) != nullptr;
        (void)lm.Acquire(tid, rid, lock::kRealModes[rng.NextBelow(5)]);
      } else if (dice < 62) {
        if (lm.NumBlocked() == 0) continue;
        const std::vector<lock::TransactionId>& blocked =
            lm.BlockedTransactions();
        const lock::TransactionId waiter =
            blocked[rng.NextBelow(blocked.size())];
        ASSERT_TRUE(lm.CancelWait(waiter).ok());
        ++cancels;
      } else if (dice < 70) {
        lm.ReleaseAll(tid);
      } else if (dice < 76) {
        // The service's cross-shard abort: per-resource releases, then
        // the bookkeeping goes.
        const lock::TxnLockInfo* info = lm.Info(tid);
        if (info == nullptr) continue;
        const std::vector<lock::ResourceId> touched(info->touched.begin(),
                                                    info->touched.end());
        for (lock::ResourceId r : touched) (void)lm.ReleaseOn(tid, r);
        lm.Forget(tid);
        ++forgets;
      } else if (dice < 82) {
        // A validated TDR-2 and its Step 3 reschedule.
        const auto [at, junction] = tdr2_at(lm.table(), rid);
        if (junction == lock::kInvalidTransaction) continue;
        ASSERT_TRUE(lm.ApplyTdr2(at, junction).ok());
        (void)lm.Reschedule(at);
        ++live_tdr2s;
      } else if (dice < 88) {
        // A walk-side TDR-2 on the mirror whose apply is rejected: the
        // live shard never sees it.
        const auto [at, junction] = tdr2_at(snapshot.table(), rid);
        if (junction == lock::kInvalidTransaction) continue;
        ASSERT_TRUE(
            snapshot.mutable_table().FindMutable(at)->ApplyTdr2(junction).ok());
        ++mirror_tdr2s;
      } else {
        publish();
      }
      const Status invariants = lm.CheckInvariants();
      ASSERT_TRUE(invariants.ok()) << invariants.ToString();
      if (HasFatalFailure()) return;
    }
    publish();
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(full_sweeps, 1u);
  // Every path of the schedule generator ran.
  EXPECT_GT(folds, 10000u);
  EXPECT_GT(conversions, 1000u);
  EXPECT_GT(cancels, 100u);
  EXPECT_GT(forgets, 100u);
  EXPECT_GT(live_tdr2s, 100u);
  EXPECT_GT(mirror_tdr2s, 100u);
}

// A bystander queued on a cycle resource aborts inside the seal-to-apply
// window.  The cycle itself survives, but the evidence stamp on the
// shared resource moved, so the pass must drop its command (no victim,
// no partial apply) and the very next pass must resolve the same cycle —
// with exactly one victim in total across both passes.
// A walk-phase TDR-2 mutates the MIRROR before its validated apply runs;
// if the apply then rejects the decision, the live shard never changes,
// so the live journal will never re-dirty that resource.  Capture must
// re-stage everything the mirror's own journal recorded since the last
// fold, or the mirror diverges from a quiesced live shard forever and
// every later pass re-derives (and re-rejects) resolutions from corrupt
// state — the exact wedge bench_throughput's stall watchdog caught on
// the shards=8 high-contention cell.
TEST(ShardSnapshotTest, DetectPhaseMirrorMutationsAreRestagedFromLive) {
  lock::LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 7, kX).ok());
  ASSERT_TRUE(lm.Acquire(2, 7, kX).ok());  // queues behind T1
  ShardSnapshot snapshot;
  (void)snapshot.Capture(lm);
  snapshot.Fold();
  const uint64_t live_version = lm.table().Find(7)->version();
  ASSERT_EQ(snapshot.table().Find(7)->version(), live_version);

  // Simulate the walk mutating the mirror (journaled, as
  // SnapshotWalkHost::ApplyTdr2 does) for a decision the validated apply
  // will reject: the mirror moves, the live table does not.
  snapshot.mutable_table().FindMutable(7)->Remove(2);
  ASSERT_NE(snapshot.table().Find(7)->version(), live_version);

  ShardCaptureStats stats = snapshot.Capture(lm);
  EXPECT_EQ(stats.dirty, 1u);
  EXPECT_FALSE(stats.full_sweep);
  snapshot.Fold();
  EXPECT_EQ(snapshot.table().Find(7)->version(), live_version);
  EXPECT_EQ(snapshot.table().Find(7)->ToString(),
            lm.table().Find(7)->ToString());
}

TEST(PauselessServiceTest, StaleCommandIsRetriedByTheNextPass) {
  ConcurrentServiceOptions options;
  options.num_shards = 2;
  options.detection_mode = DetectionMode::kPeriodic;
  ConcurrentLockService* raw = nullptr;
  lock::TransactionId bystander = 0;
  std::atomic<int> hook_fires{0};
  options.post_seal_hook = [&] {
    if (hook_fires.fetch_add(1) == 0) {
      EXPECT_TRUE(raw->Abort(bystander).ok());
    }
  };
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  raw = service->get();

  const lock::TransactionId t1 = *raw->Begin();
  const lock::TransactionId t2 = *raw->Begin();
  bystander = *raw->Begin();
  ASSERT_TRUE(raw->AcquireBlocking(t1, 1, kX).ok());
  ASSERT_TRUE(raw->AcquireBlocking(t2, 2, kX).ok());

  std::atomic<int> cycle_aborts{0};
  std::atomic<int> bystander_aborts{0};
  auto block = [&](lock::TransactionId t, lock::ResourceId rid,
                   std::atomic<int>* aborts) {
    Status status = raw->AcquireBlocking(t, rid, kX);
    if (status.IsAborted()) {
      ++*aborts;
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(raw->Commit(t).ok());
  };
  std::thread a(block, t1, 2, &cycle_aborts);
  WaitUntilBlocked(*raw, t1);
  std::thread b(block, t2, 1, &cycle_aborts);
  WaitUntilBlocked(*raw, t2);
  std::thread c(block, bystander, 1, &bystander_aborts);
  WaitUntilBlocked(*raw, bystander);

  core::ResolutionReport first = raw->RunDetectionPass();
  EXPECT_EQ(first.cycles_detected, 1u);
  EXPECT_EQ(first.rejected, 1u);
  EXPECT_TRUE(first.aborted.empty());
  EXPECT_TRUE(first.decisions.empty());
  EXPECT_NE(first.ToString().find("rejected: 1 stale"), std::string::npos);
  EXPECT_EQ(raw->deadlock_victims(), 0u);  // no phantom victim

  core::ResolutionReport second = raw->RunDetectionPass();
  EXPECT_EQ(second.rejected, 0u);
  EXPECT_EQ(second.aborted.size(), 1u);
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(cycle_aborts.load(), 1);  // no double victim
  EXPECT_EQ(bystander_aborts.load(), 1);
  EXPECT_EQ(raw->deadlock_victims(), 1u);
  EXPECT_EQ(raw->resolutions_rejected(), 1u);
  EXPECT_EQ(raw->pause_times_ns().size(), 2u);
  EXPECT_EQ(raw->publish_pause_times_ns().size(), 2 * raw->num_shards());
  EXPECT_EQ(raw->detection_lag_ns().size(), 2u);
}

// A cycle *member* aborts inside the window: the deadlock dissolves
// before the command lands, so the stale command must be dropped and no
// later pass may ever produce a victim for it.
TEST(PauselessServiceTest, DissolvedCycleNeverYieldsAVictim) {
  ConcurrentServiceOptions options;
  options.num_shards = 2;
  options.detection_mode = DetectionMode::kPeriodic;
  ConcurrentLockService* raw = nullptr;
  lock::TransactionId member = 0;
  std::atomic<int> hook_fires{0};
  options.post_seal_hook = [&] {
    if (hook_fires.fetch_add(1) == 0) {
      EXPECT_TRUE(raw->Abort(member).ok());
    }
  };
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  raw = service->get();

  const lock::TransactionId t1 = *raw->Begin();
  member = *raw->Begin();
  ASSERT_TRUE(raw->AcquireBlocking(t1, 1, kX).ok());
  ASSERT_TRUE(raw->AcquireBlocking(member, 2, kX).ok());

  std::atomic<int> survivor_commits{0};
  std::thread a([&] {
    // T1's wait outlives the cycle: the member's abort grants R2.
    Status status = raw->AcquireBlocking(t1, 2, kX);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(raw->Commit(t1).ok());
    ++survivor_commits;
  });
  WaitUntilBlocked(*raw, t1);
  std::thread b([&] {
    Status status = raw->AcquireBlocking(member, 1, kX);
    EXPECT_TRUE(status.IsAborted()) << status.ToString();
  });
  WaitUntilBlocked(*raw, member);

  core::ResolutionReport first = raw->RunDetectionPass();
  EXPECT_EQ(first.cycles_detected, 1u);
  EXPECT_EQ(first.rejected, 1u);
  EXPECT_TRUE(first.aborted.empty());
  a.join();
  b.join();
  core::ResolutionReport second = raw->RunDetectionPass();
  EXPECT_EQ(second.cycles_detected, 0u);
  EXPECT_TRUE(second.aborted.empty());
  EXPECT_EQ(raw->deadlock_victims(), 0u);
  EXPECT_EQ(raw->resolutions_rejected(), 1u);
  EXPECT_EQ(survivor_commits.load(), 1);
}

// Chaos: a fault-injected workload (delayed grants, dropped wakeups,
// crashes, shard stalls) races a continuously re-running pauseless
// detector.  Liveness (every thread finishes, no lost wakeup), a clean
// invariant sweep, and exact per-pass accounting of the new series.
TEST(PauselessServiceTest, FaultInjectedChurnStaysInvariantClean) {
  ConcurrentServiceOptions options;
  options.num_shards = 8;
  options.detection_mode = DetectionMode::kPeriodic;
  options.cost_policy = CostPolicy::kLocksHeld;
  robustness::FaultPlanOptions fault_options;
  fault_options.num_faults = 12;
  fault_options.max_at = 60;
  fault_options.max_txn = 60;
  fault_options.max_shard = 8;
  fault_options.max_duration = 100;  // microseconds in the threaded host
  Result<robustness::FaultPlan> plan =
      robustness::FaultPlan::Random(20260807, fault_options);
  ASSERT_TRUE(plan.ok());
  options.fault_plan = *plan;
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ConcurrentLockService& s = **service;

  std::atomic<bool> stop{false};
  std::thread detector([&] {
    while (!stop.load()) {
      (void)s.RunDetectionPass();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kWorkers = 4;
  std::atomic<int> committed{0};
  {
    std::vector<std::thread> workers;
    for (int worker = 0; worker < kWorkers; ++worker) {
      workers.emplace_back([&, worker] {
        for (int i = 0; i < 20; ++i) {
          for (;;) {
            const lock::TransactionId t = *s.Begin();
            bool dead = false;
            for (int k = 0; k < 3 && !dead; ++k) {
              const lock::ResourceId rid =
                  static_cast<lock::ResourceId>(1 + (worker + k * i) % 7);
              Status status =
                  s.AcquireBlocking(t, rid, k == 2 ? kX : kS);
              if (status.IsAborted()) dead = true;
            }
            if (dead) continue;  // victim or crash fault: retry fresh
            ASSERT_TRUE(s.Commit(t).ok());
            ++committed;
            break;
          }
        }
      });
    }
    for (std::thread& thread : workers) thread.join();
  }
  stop.store(true);
  detector.join();

  EXPECT_EQ(committed.load(), kWorkers * 20);
  EXPECT_TRUE(s.CheckInvariants(/*deep=*/true).ok());
  const uint64_t epochs = s.snapshot_epoch();
  EXPECT_GE(epochs, 1u);
  // Every pass was pauseless: one client-visible pause and one lag per
  // pass, one publish pause per shard per pass, and no degraded sweeps.
  EXPECT_EQ(s.pause_times_ns().size(), epochs);
  EXPECT_EQ(s.publish_pause_times_ns().size(), epochs * s.num_shards());
  EXPECT_EQ(s.detection_lag_ns().size(), epochs);
  EXPECT_TRUE(s.sweep_pause_times_ns().empty());
}

// The causal span tree of one pauseless pass: the pass span parents one
// publish span per shard, the stamp-validated apply, and one resolution
// span per validated decision — and every replayed kCyclePostMortem
// event carries its resolution span's id (the forensic <-> timeline
// join).  Client-side, all five transactions get txn + wait spans with
// exactly the two victims marked aborted.
TEST(PauselessServiceTest, SpanTreeCoversTheWholePauselessPass) {
  obs::SpanTracer tracer;
  obs::SpanCollectorSink spans;
  tracer.Subscribe(&spans);
  obs::EventBus bus;
  obs::CollectorSink events;
  bus.Subscribe(&events);
  ConcurrentServiceOptions options =
      QuiescedOptions(SnapshotStrategy::kEpochDelta);
  options.event_bus = &bus;
  options.span_tracer = &tracer;
  core::ResolutionReport report;
  int victims = 0;
  {
    auto service = ConcurrentLockService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    BuildCyclesAndRunPass(**service, &report, &victims);
  }
  EXPECT_EQ(victims, 2);

  const std::vector<obs::Span> passes = spans.Filter(obs::SpanKind::kPass);
  ASSERT_EQ(passes.size(), 1u);
  EXPECT_EQ(passes[0].a, 2u);  // cycles resolved (none rejected)
  EXPECT_GT(passes[0].b, 0u);  // pass cost in nanoseconds
  const uint64_t pass_id = passes[0].id;

  const std::vector<obs::Span> publishes =
      spans.Filter(obs::SpanKind::kPublish);
  ASSERT_EQ(publishes.size(), 4u);  // one per shard
  std::set<uint32_t> tracks;
  for (const obs::Span& publish : publishes) {
    EXPECT_EQ(publish.parent, pass_id);
    tracks.insert(publish.track);
  }
  EXPECT_EQ(tracks.size(), 4u);  // distinct shard lanes

  const std::vector<obs::Span> applies = spans.Filter(obs::SpanKind::kApply);
  ASSERT_EQ(applies.size(), 1u);
  EXPECT_EQ(applies[0].parent, pass_id);
  EXPECT_EQ(applies[0].a, 2u);  // decisions applied
  EXPECT_EQ(applies[0].b, 0u);  // none rejected as stale

  const std::vector<obs::Span> resolutions =
      spans.Filter(obs::SpanKind::kResolution);
  ASSERT_EQ(resolutions.size(), 2u);
  std::set<uint64_t> res_ids;
  for (const obs::Span& res : resolutions) {
    EXPECT_EQ(res.parent, pass_id);
    EXPECT_TRUE(res.label == "TDR-1" || res.label == "TDR-2") << res.label;
    EXPECT_GE(res.a, 2u);  // cycle length (the 2-cycle and the 3-cycle)
    EXPECT_NE(res.tid, 0u);
    res_ids.insert(res.id);
  }

  const std::vector<obs::Event> post_mortems =
      events.Filter(obs::EventKind::kCyclePostMortem);
  ASSERT_EQ(post_mortems.size(), 2u);
  for (const obs::Event& pm : post_mortems) {
    EXPECT_EQ(res_ids.count(pm.span), 1u) << pm.span;
  }

  const std::vector<obs::Span> txns = spans.Filter(obs::SpanKind::kTxn);
  ASSERT_EQ(txns.size(), 5u);
  size_t txn_aborts = 0;
  for (const obs::Span& txn : txns) {
    EXPECT_EQ(txn.label, "client");
    txn_aborts += txn.aborted ? 1 : 0;
  }
  EXPECT_EQ(txn_aborts, 2u);

  const std::vector<obs::Span> waits = spans.Filter(obs::SpanKind::kWait);
  ASSERT_EQ(waits.size(), 5u);  // every transaction blocked exactly once
  size_t wait_aborts = 0;
  for (const obs::Span& wait : waits) {
    EXPECT_GT(wait.corr, 0u);  // joins against the event stream
    wait_aborts += wait.aborted ? 1 : 0;
  }
  EXPECT_EQ(wait_aborts, 2u);  // the victims; survivors were granted
  EXPECT_EQ(tracer.open_count(), 0u);  // nothing leaked
}

// The stop-the-world engine emits the pass span itself (its detector
// runs tracer-less), with the same client-side txn/wait coverage.
TEST(PauselessServiceTest, StopTheWorldPassEmitsPassSpan) {
  obs::SpanTracer tracer;
  obs::SpanCollectorSink spans;
  tracer.Subscribe(&spans);
  ConcurrentServiceOptions options =
      QuiescedOptions(SnapshotStrategy::kStopTheWorld);
  options.span_tracer = &tracer;
  core::ResolutionReport report;
  int victims = 0;
  {
    auto service = ConcurrentLockService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    BuildCyclesAndRunPass(**service, &report, &victims);
  }
  EXPECT_EQ(victims, 2);
  const std::vector<obs::Span> passes = spans.Filter(obs::SpanKind::kPass);
  ASSERT_EQ(passes.size(), 1u);
  EXPECT_EQ(passes[0].a, 2u);
  EXPECT_GT(passes[0].b, 0u);  // the client-visible pause in nanoseconds
  EXPECT_TRUE(spans.Filter(obs::SpanKind::kPublish).empty());
  EXPECT_EQ(spans.Count(obs::SpanKind::kTxn), 5u);
  EXPECT_EQ(spans.Count(obs::SpanKind::kWait), 5u);
  EXPECT_EQ(tracer.open_count(), 0u);
}

}  // namespace
}  // namespace twbg::txn
