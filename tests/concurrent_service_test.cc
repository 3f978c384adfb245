// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Tests for the thread-safe service wrapper: real threads, real blocking
// waits, inline deadlock resolution — no run may hang.

#include "txn/concurrent_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace twbg::txn {
namespace {

using enum lock::LockMode;

TEST(ConcurrentServiceTest, SingleThreadedBasics) {
  auto owned = ConcurrentLockService::Create(ConcurrentServiceOptions{});
  ASSERT_TRUE(owned.ok());
  ConcurrentLockService& service = **owned;
  lock::TransactionId t = *service.Begin();
  EXPECT_TRUE(service.AcquireBlocking(t, 1, kX).ok());
  EXPECT_TRUE(service.AcquireBlocking(t, 1, kX).ok());  // covered: no-op
  EXPECT_TRUE(service.Commit(t).ok());
  EXPECT_EQ(*service.State(t), TxnState::kCommitted);
  EXPECT_TRUE(service.Commit(t).IsFailedPrecondition());
}

TEST(ConcurrentServiceTest, WaiterIsWokenByCommit) {
  auto owned = ConcurrentLockService::Create(ConcurrentServiceOptions{});
  ASSERT_TRUE(owned.ok());
  ConcurrentLockService& service = **owned;
  lock::TransactionId holder = *service.Begin();
  ASSERT_TRUE(service.AcquireBlocking(holder, 1, kX).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    lock::TransactionId t = *service.Begin();
    Status status = service.AcquireBlocking(t, 1, kS);
    EXPECT_TRUE(status.ok()) << status.ToString();
    granted = true;
    EXPECT_TRUE(service.Commit(t).ok());
  });
  // Give the waiter time to park, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  ASSERT_TRUE(service.Commit(holder).ok());
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(ConcurrentServiceTest, DeterministicCrossDeadlockResolvedInline) {
  // Both threads take their first lock, rendezvous, then cross: a certain
  // deadlock.  Exactly one becomes the victim; the other completes.
  auto owned = ConcurrentLockService::Create(ConcurrentServiceOptions{});
  ASSERT_TRUE(owned.ok());
  ConcurrentLockService& service = **owned;
  std::barrier rendezvous(2);
  std::atomic<int> victims{0};
  std::atomic<int> commits{0};
  auto runner = [&](lock::ResourceId first, lock::ResourceId second) {
    lock::TransactionId t = *service.Begin();
    ASSERT_TRUE(service.AcquireBlocking(t, first, kX).ok());
    rendezvous.arrive_and_wait();
    Status status = service.AcquireBlocking(t, second, kX);
    if (status.IsAborted()) {
      ++victims;
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(service.Commit(t).ok());
    ++commits;
  };
  std::thread a(runner, 1, 2);
  std::thread b(runner, 2, 1);
  a.join();
  b.join();
  EXPECT_EQ(victims.load(), 1);
  EXPECT_EQ(commits.load(), 1);
  EXPECT_EQ(service.deadlock_victims(), 1u);
}

TEST(ConcurrentServiceTest, CrossingTransfersResolveWithoutHanging) {
  auto owned = ConcurrentLockService::Create(ConcurrentServiceOptions{});
  ASSERT_TRUE(owned.ok());
  ConcurrentLockService& service = **owned;
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 50;
  std::atomic<int> committed{0};
  std::atomic<int> victim_retries{0};
  std::vector<std::thread> threads;
  for (int worker = 0; worker < kThreads; ++worker) {
    threads.emplace_back([&, worker] {
      // Each worker transfers between two hot accounts in its own order —
      // a deadlock factory (whether deadlocks actually occur depends on
      // scheduling; the invariant is that nothing hangs and every
      // transfer eventually commits).
      const lock::ResourceId a = (worker % 2 == 0) ? 1 : 2;
      const lock::ResourceId b = (worker % 2 == 0) ? 2 : 1;
      for (int i = 0; i < kTransfersPerThread; ++i) {
        for (;;) {
          lock::TransactionId t = *service.Begin();
          Status first = service.AcquireBlocking(t, a, kX);
          if (first.IsAborted()) {
            ++victim_retries;
            // Brief backoff before retrying: immediate re-acquisition of
            // the same two hot locks convoys instrumented (TSan) builds.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            continue;
          }
          ASSERT_TRUE(first.ok());
          std::this_thread::yield();  // widen the interleaving window
          Status second = service.AcquireBlocking(t, b, kX);
          if (second.IsAborted()) {
            ++victim_retries;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            continue;
          }
          ASSERT_TRUE(second.ok());
          ASSERT_TRUE(service.Commit(t).ok());
          ++committed;
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(committed.load(), kThreads * kTransfersPerThread);
  EXPECT_EQ(static_cast<size_t>(victim_retries.load()),
            service.deadlock_victims());
}

TEST(ConcurrentServiceTest, ManyThreadsManyResources) {
  auto owned = ConcurrentLockService::Create(ConcurrentServiceOptions{});
  ASSERT_TRUE(owned.ok());
  ConcurrentLockService& service = **owned;
  constexpr int kThreads = 8;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int worker = 0; worker < kThreads; ++worker) {
    threads.emplace_back([&, worker] {
      for (int i = 0; i < 30; ++i) {
        for (;;) {
          lock::TransactionId t = *service.Begin();
          bool dead = false;
          // Lock three resources in a worker-dependent rotation.
          for (int k = 0; k < 3; ++k) {
            lock::ResourceId rid =
                static_cast<lock::ResourceId>(1 + (worker + k * i) % 5);
            Status status = service.AcquireBlocking(
                t, rid, k == 2 ? kX : kS);
            if (status.IsAborted()) {
              dead = true;
              break;
            }
            ASSERT_TRUE(status.ok()) << status.ToString();
          }
          if (dead) continue;
          ASSERT_TRUE(service.Commit(t).ok());
          ++committed;
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(committed.load(), kThreads * 30);
}

TEST(ConcurrentServiceCreateTest, RejectsUnsupportedCombinations) {
  {
    ConcurrentServiceOptions options;
    options.num_shards = 0;
    EXPECT_TRUE(ConcurrentLockService::Create(options)
                    .status().IsInvalidArgument());
  }
  {
    ConcurrentServiceOptions options;
    options.num_shards = 65;
    options.detection_mode = DetectionMode::kPeriodic;
    EXPECT_TRUE(ConcurrentLockService::Create(options)
                    .status().IsInvalidArgument());
  }
  {
    // The historical silent coercion is now an explicit error:
    // continuous detection runs on exactly one shard, with no detector
    // thread.
    ConcurrentServiceOptions options;
    options.num_shards = 4;
    options.detection_mode = DetectionMode::kContinuous;
    EXPECT_TRUE(ConcurrentLockService::Create(options)
                    .status().IsInvalidArgument());
  }
  {
    ConcurrentServiceOptions options;
    options.detection_period = std::chrono::microseconds(100);
    EXPECT_TRUE(ConcurrentLockService::Create(options)
                    .status().IsInvalidArgument());
  }
  {
    ConcurrentServiceOptions options;  // defaults: continuous, one shard
    auto service = ConcurrentLockService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_EQ((*service)->num_shards(), 1u);
  }
}

TEST(ConcurrentServiceCreateTest, PeriodicShardedBasics) {
  ConcurrentServiceOptions options;
  options.num_shards = 4;
  options.detection_mode = DetectionMode::kPeriodic;
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ConcurrentLockService& s = **service;
  EXPECT_EQ(s.num_shards(), 4u);
  EXPECT_EQ(s.snapshot_epoch(), 0u);

  lock::TransactionId t1 = *s.Begin();
  lock::TransactionId t2 = *s.Begin();
  EXPECT_TRUE(s.AcquireBlocking(t1, 1, kX).ok());
  EXPECT_TRUE(s.AcquireBlocking(t1, 2, kS).ok());
  EXPECT_TRUE(s.AcquireBlocking(t2, 3, kX).ok());
  EXPECT_TRUE(s.AcquireBlocking(t2, 2, kS).ok());  // shared: both granted

  // Deadlock-free table: a manual pass resolves nothing but advances the
  // snapshot epoch and records its pause.
  core::ResolutionReport report = s.RunDetectionPass();
  EXPECT_TRUE(report.aborted.empty());
  EXPECT_EQ(s.snapshot_epoch(), 1u);
  EXPECT_EQ(s.pause_times_ns().size(), 1u);

  EXPECT_TRUE(s.Commit(t1).ok());
  EXPECT_TRUE(s.Abort(t2).ok());
  EXPECT_EQ(*s.State(t1), TxnState::kCommitted);
  EXPECT_EQ(*s.State(t2), TxnState::kAborted);
  EXPECT_TRUE(s.State(99).status().IsNotFound());
  EXPECT_TRUE(s.Commit(t1).IsFailedPrecondition());
  EXPECT_TRUE(s.AcquireBlocking(t2, 5, kX).IsFailedPrecondition());

  uint64_t total_ops = 0;
  for (size_t shard = 0; shard < s.num_shards(); ++shard) {
    total_ops += s.shard_stats(shard).ops;
  }
  EXPECT_GT(total_ops, 0u);
}

TEST(ConcurrentServiceCreateTest, PeriodicCrossDeadlockResolvedByThread) {
  // Same certain cross-deadlock as the continuous test above, but nobody
  // calls RunDetectionPass: the dedicated detector thread must find and
  // resolve it, or both workers hang forever.
  ConcurrentServiceOptions options;
  options.num_shards = 8;
  options.detection_mode = DetectionMode::kPeriodic;
  options.detection_period = std::chrono::microseconds(500);
  auto service = ConcurrentLockService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ConcurrentLockService& s = **service;

  std::barrier rendezvous(2);
  std::atomic<int> victims{0};
  std::atomic<int> commits{0};
  auto runner = [&](lock::ResourceId first, lock::ResourceId second) {
    lock::TransactionId t = *s.Begin();
    ASSERT_TRUE(s.AcquireBlocking(t, first, kX).ok());
    rendezvous.arrive_and_wait();
    Status status = s.AcquireBlocking(t, second, kX);
    if (status.IsAborted()) {
      ++victims;
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_TRUE(s.Commit(t).ok());
    ++commits;
  };
  std::thread a(runner, 1, 2);
  std::thread b(runner, 2, 1);
  a.join();
  b.join();
  EXPECT_EQ(victims.load(), 1);
  EXPECT_EQ(commits.load(), 1);
  EXPECT_EQ(s.deadlock_victims(), 1u);
  EXPECT_GE(s.snapshot_epoch(), 1u);
}

// Every call of the completions it hands out: the Status and the thread
// the completion ran on.
class WaitEndLog {
 public:
  ConcurrentLockService::WaitCompletion Completion() {
    return [this](const Status& status) {
      std::scoped_lock lock(mu_);
      calls_.push_back({std::this_thread::get_id(), status});
    };
  }
  std::vector<std::pair<std::thread::id, Status>> calls() {
    std::scoped_lock lock(mu_);
    return calls_;
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<std::thread::id, Status>> calls_;
};

std::unique_ptr<ConcurrentLockService> ManualPeriodicService() {
  ConcurrentServiceOptions options;
  options.detection_mode = DetectionMode::kPeriodic;  // no detector thread
  auto service = ConcurrentLockService::Create(options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

TEST(OnWaitEndTest, RunsAtOnceUnlessBlocked) {
  auto service = ManualPeriodicService();
  const lock::TransactionId active = *service->Begin();
  const lock::TransactionId committed = *service->Begin();
  const lock::TransactionId aborted = *service->Begin();
  ASSERT_TRUE(service->Commit(committed).ok());
  ASSERT_TRUE(service->Abort(aborted).ok());
  WaitEndLog log;
  for (lock::TransactionId tid : {active, committed, aborted, 999u}) {
    service->OnWaitEnd(tid, log.Completion());
  }
  // The statuses LockClient::Await reports for each; all on this thread.
  const auto calls = log.calls();
  ASSERT_EQ(calls.size(), 4u);
  for (const auto& [thread, status] : calls) {
    EXPECT_EQ(thread, std::this_thread::get_id());
  }
  EXPECT_TRUE(calls[0].second.ok());
  EXPECT_TRUE(calls[1].second.IsFailedPrecondition());
  EXPECT_TRUE(calls[2].second.IsDeadlockVictim());
  EXPECT_TRUE(calls[3].second.IsNotFound());
}

TEST(OnWaitEndTest, RunsOnTheReleasingThreadBeforeCommitReturns) {
  auto service = ManualPeriodicService();
  const lock::TransactionId holder = *service->Begin();
  const lock::TransactionId waiter = *service->Begin();
  ASSERT_TRUE(service->AcquireBlocking(holder, 1, kX).ok());
  ASSERT_EQ(*service->AcquireAsync(waiter, 1, kS),
            lock::RequestOutcome::kBlocked);
  WaitEndLog log;
  service->OnWaitEnd(waiter, log.Completion());
  service->OnWaitEnd(waiter, log.Completion());  // two on one id
  EXPECT_TRUE(log.calls().empty());

  std::thread::id releasing;
  size_t fired_before_return = 0;
  std::thread releaser([&] {
    releasing = std::this_thread::get_id();
    EXPECT_TRUE(service->Commit(holder).ok());
    fired_before_return = log.calls().size();
  });
  releaser.join();
  EXPECT_EQ(fired_before_return, 2u);
  for (const auto& [thread, status] : log.calls()) {
    EXPECT_EQ(thread, releasing);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  // One-shot: later transitions of the same transaction run nothing.
  ASSERT_TRUE(service->Commit(waiter).ok());
  EXPECT_EQ(log.calls().size(), 2u);
}

TEST(OnWaitEndTest, DetectionPassEndsVictimAndSurvivorWaits) {
  auto service = ManualPeriodicService();
  const lock::TransactionId t1 = *service->Begin();
  const lock::TransactionId t2 = *service->Begin();
  ASSERT_TRUE(service->AcquireBlocking(t1, 1, kX).ok());
  ASSERT_TRUE(service->AcquireBlocking(t2, 2, kX).ok());
  ASSERT_EQ(*service->AcquireAsync(t1, 2, kX), lock::RequestOutcome::kBlocked);
  ASSERT_EQ(*service->AcquireAsync(t2, 1, kX), lock::RequestOutcome::kBlocked);
  ASSERT_TRUE(service->SetCost(t1, 1.0).ok());  // the cheaper victim
  ASSERT_TRUE(service->SetCost(t2, 10.0).ok());
  WaitEndLog victim;
  WaitEndLog survivor;
  service->OnWaitEnd(t1, victim.Completion());
  service->OnWaitEnd(t2, survivor.Completion());

  const core::ResolutionReport report = service->RunDetectionPass();
  ASSERT_EQ(report.aborted, std::vector<lock::TransactionId>{t1});
  const auto victim_calls = victim.calls();
  const auto survivor_calls = survivor.calls();
  ASSERT_EQ(victim_calls.size(), 1u);
  ASSERT_EQ(survivor_calls.size(), 1u);
  EXPECT_TRUE(victim_calls[0].second.IsDeadlockVictim());
  EXPECT_TRUE(survivor_calls[0].second.ok());
  EXPECT_EQ(victim_calls[0].first, std::this_thread::get_id());
  EXPECT_EQ(survivor_calls[0].first, std::this_thread::get_id());
  ASSERT_TRUE(service->Commit(t2).ok());
  EXPECT_EQ(survivor.calls().size(), 1u);
}

// The transaction table indexes records by tid; a tid it does not hold
// — kInvalidTransaction, the next one Begin would issue, the largest —
// is unknown to every call that names a transaction.
TEST(TxnTableTest, TidsNotIssuedAreNotFound) {
  auto service = ManualPeriodicService();
  const lock::TransactionId issued = *service->Begin();
  for (lock::TransactionId tid :
       {lock::kInvalidTransaction, issued + 1,
        std::numeric_limits<lock::TransactionId>::max()}) {
    SCOPED_TRACE(tid);
    EXPECT_TRUE(service->State(tid).status().IsNotFound());
    WaitEndLog log;
    service->OnWaitEnd(tid, log.Completion());
    const auto calls = log.calls();
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_TRUE(calls[0].second.IsNotFound());
    EXPECT_TRUE(service->SetCost(tid, 1.0).IsNotFound());
    EXPECT_TRUE(service->AcquireAsync(tid, 1, kX).status().IsNotFound());
    EXPECT_TRUE(service->AcquireBlocking(tid, 1, kX).IsNotFound());
    EXPECT_TRUE(service->Commit(tid).IsNotFound());
    EXPECT_TRUE(service->Abort(tid).IsNotFound());
  }
  EXPECT_EQ(*service->State(issued), TxnState::kActive);
  EXPECT_TRUE(service->CheckInvariants().ok());
}

TEST(TxnTableTest, TerminalStatesOutliveLaterTransactions) {
  auto service = ManualPeriodicService();
  const lock::TransactionId committed = *service->Begin();
  const lock::TransactionId aborted = *service->Begin();
  ASSERT_TRUE(service->AcquireBlocking(committed, 1, kX).ok());
  ASSERT_TRUE(service->AcquireBlocking(aborted, 2, kX).ok());
  ASSERT_TRUE(service->Commit(committed).ok());
  ASSERT_TRUE(service->Abort(aborted).ok());
  for (int i = 0; i < 100'000; ++i) {
    const Result<lock::TransactionId> t = service->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(service->Commit(*t).ok());
  }
  EXPECT_EQ(*service->State(committed), TxnState::kCommitted);
  EXPECT_EQ(*service->State(aborted), TxnState::kAborted);
  EXPECT_TRUE(service->Commit(committed).IsFailedPrecondition());
  EXPECT_TRUE(service->Commit(aborted).IsFailedPrecondition());
  EXPECT_EQ(service->live_transactions(), 0u);
  EXPECT_TRUE(service->CheckInvariants().ok());
}

// AcquireBlocking parks holding a pointer to its transaction's record;
// Begins on other threads append records meanwhile.  The table must not
// move the record (a vector would: the waiter would then read freed
// memory, and miss its grant).
TEST(TxnTableTest, ParkedWaiterSurvivesTableGrowth) {
  auto service = ManualPeriodicService();
  const lock::TransactionId holder = *service->Begin();
  const lock::TransactionId waiter = *service->Begin();
  ASSERT_TRUE(service->AcquireBlocking(holder, 1, kX).ok());
  Status waited = Status::Internal("AcquireBlocking did not return");
  std::thread parked(
      [&] { waited = service->AcquireBlocking(waiter, 1, kS); });
  while (*service->State(waiter) != TxnState::kBlocked) {
    std::this_thread::yield();
  }
  size_t begun = 0;
  for (int i = 0; i < 20'000; ++i) begun += service->Begin().ok() ? 1 : 0;
  EXPECT_EQ(begun, 20'000u);
  EXPECT_TRUE(service->Commit(holder).ok());
  parked.join();
  EXPECT_TRUE(waited.ok()) << waited.ToString();
  EXPECT_EQ(*service->State(waiter), TxnState::kActive);
  EXPECT_TRUE(service->CheckInvariants().ok());
}

// State takes no lock: pollers on other threads read transactions while
// clients Begin, acquire (contending, so some block and a detector thread
// aborts deadlock victims) and commit or abort.  Every answer must be a
// legal state, NotFound exactly where Begin has not issued the tid yet,
// and no tid may go from terminated back to live or unknown.
TEST(TxnTableTest, StatePollsRaceBeginsAndTerminations) {
  ConcurrentServiceOptions options;
  options.num_shards = 4;
  options.detection_mode = DetectionMode::kPeriodic;
  options.detection_period = std::chrono::microseconds(500);
  auto created = ConcurrentLockService::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ConcurrentLockService& service = **created;

  constexpr int kClients = 3;
  constexpr int kTxnsPerClient = 600;
  constexpr lock::TransactionId kTotal = kClients * kTxnsPerClient;
  // Begins that have returned: tids 1..begun are issued (tids are dense
  // and issued in order).
  std::atomic<lock::TransactionId> begun{0};
  std::atomic<int> clients_done{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kTxnsPerClient; ++i) {
        const Result<lock::TransactionId> tid = service.Begin();
        EXPECT_TRUE(tid.ok());
        if (!tid.ok()) break;
        begun.fetch_add(1);
        bool alive = true;
        for (int k = 0; k < 3 && alive; ++k) {
          const auto rid =
              static_cast<lock::ResourceId>(1 + (c * 7 + i * 3 + k * 5) % 8);
          alive = service.AcquireBlocking(*tid, rid, k == 2 ? kX : kS).ok();
        }
        if (!alive) continue;  // a deadlock victim: already aborted
        EXPECT_TRUE(i % 4 == 0 ? service.Abort(*tid).ok()
                               : service.Commit(*tid).ok());
      }
      clients_done.fetch_add(1);
    });
  }

  const auto terminal = [](TxnState state) {
    return state == TxnState::kCommitted || state == TxnState::kAborted;
  };
  constexpr int kPollers = 2;
  std::vector<std::thread> pollers;
  for (int p = 0; p < kPollers; ++p) {
    pollers.emplace_back([&] {
      // Last answer per tid; polled past kTotal, where Begin never
      // reaches.
      std::vector<std::optional<TxnState>> last(kTotal + 17);
      bool final_round = false;
      while (!final_round) {
        final_round = clients_done.load() == kClients;
        EXPECT_TRUE(service.State(lock::kInvalidTransaction)
                        .status()
                        .IsNotFound());
        for (lock::TransactionId tid = 1; tid < last.size(); ++tid) {
          const lock::TransactionId issued = begun.load();
          const Result<TxnState> state = service.State(tid);
          if (!state.ok()) {
            ASSERT_TRUE(state.status().IsNotFound());
            ASSERT_GT(tid, issued) << "issued T" << tid << " not found";
            ASSERT_FALSE(last[tid].has_value())
                << "T" << tid << " was found, then not";
            continue;
          }
          ASSERT_LE(tid, kTotal) << "T" << tid << " was never begun";
          const TxnState now = *state;
          ASSERT_TRUE(now == TxnState::kActive || now == TxnState::kBlocked ||
                      terminal(now));
          if (last[tid].has_value() && terminal(*last[tid])) {
            ASSERT_EQ(now, *last[tid])
                << "T" << tid << " left a terminal state";
          }
          last[tid] = now;
        }
      }
      // The clients are done: every tid they began has ended.
      for (lock::TransactionId tid = 1; tid <= kTotal; ++tid) {
        ASSERT_TRUE(last[tid].has_value() && terminal(*last[tid]));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (std::thread& poller : pollers) poller.join();
  EXPECT_EQ(service.live_transactions(), 0u);
  EXPECT_TRUE(service.CheckInvariants().ok());
}

// ShardStats::hold_ns samples one client critical section in 16 (the one
// that brings the shard's `ops` to a multiple of 16) and charges it 16
// times, so a fresh shard has no hold time until its 16th operation.
TEST(ShardStatsTest, HoldTimeSamplesEverySixteenthOperation) {
  auto service = ManualPeriodicService();  // one shard
  const lock::TransactionId first = *service->Begin();
  for (lock::ResourceId rid = 1; rid <= 15; ++rid) {
    ASSERT_EQ(*service->AcquireAsync(first, rid, kX),
              lock::RequestOutcome::kGranted);
  }
  ShardStats stats = service->shard_stats(0);
  EXPECT_EQ(stats.ops, 15u);
  EXPECT_EQ(stats.hold_ns, 0u);
  // The 16th operation is the sample: a commit releasing 15 locks, long
  // enough to read nonzero on a coarse clock.
  ASSERT_TRUE(service->Commit(first).ok());
  stats = service->shard_stats(0);
  EXPECT_EQ(stats.ops, 16u);
  EXPECT_GT(stats.hold_ns, 0u);
  EXPECT_EQ(stats.hold_ns % 16, 0u);  // one sample, charged 16 times
  // Operations 17 to 31 are not timed; the 32nd, an acquire, is.
  const uint64_t sampled = stats.hold_ns;
  const lock::TransactionId second = *service->Begin();
  for (lock::ResourceId rid = 1; rid <= 15; ++rid) {
    ASSERT_EQ(*service->AcquireAsync(second, rid, kX),
              lock::RequestOutcome::kGranted);
  }
  EXPECT_EQ(service->shard_stats(0).hold_ns, sampled);
  ASSERT_EQ(*service->AcquireAsync(second, 16, kX),
            lock::RequestOutcome::kGranted);
  stats = service->shard_stats(0);
  EXPECT_EQ(stats.ops, 32u);
  EXPECT_EQ((stats.hold_ns - sampled) % 16, 0u);
}

}  // namespace
}  // namespace twbg::txn
