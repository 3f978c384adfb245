// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Allocation accounting for the lock-table substrate: a binary-local
// counting operator new asserts the contracts the flat-hash layout was
// built for —
//
//   * ResourceState copy-assignment reuses destination holder/queue
//     capacity (the PR-6 snapshot-staging contract),
//   * a steady-state ShardSnapshot Capture+Fold round allocates nothing,
//     also while waiters come and go,
//   * steady-state create/erase churn on a LockTable reuses freed slots,
//     holder/queue capacity included, instead of allocating,
//   * the fast-path Acquire of an uncontended lock allocates nothing
//     once the transaction and resource footprints exist,
//   * a steady-state client transaction on the sharded service (Begin,
//     eight AcquireAsync, Commit over four shards) allocates nothing.
//
// The counter hooks this test binary's global operator new, so every
// EXPECT below measures the whole process — run serially (gtest default)
// these windows are deterministic.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "lock/lock_manager.h"
#include "lock/lock_table.h"
#include "lock/resource_state.h"
#include "txn/concurrent_service.h"
#include "txn/epoch_snapshot.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace twbg {
namespace {

using lock::LockManager;
using lock::LockMode;

uint64_t AllocCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Fills `state` with holders and a queue long enough to spill the inline
// capacity of both small vectors.
void FillBeyondInline(lock::ResourceState& state) {
  for (lock::TransactionId tid = 1; tid <= 6; ++tid) {
    ASSERT_TRUE(state.Request(tid, LockMode::kIS).ok());
  }
  for (lock::TransactionId tid = 7; tid <= 13; ++tid) {
    ASSERT_TRUE(state.Request(tid, LockMode::kX).ok());  // queues up
  }
  ASSERT_GT(state.holders().size(), 4u);
  ASSERT_GT(state.queue().size(), 4u);
}

TEST(CaptureAllocTest, ResourceStateCopyAssignReusesCapacity) {
  lock::ResourceState source(1);
  FillBeyondInline(source);
  lock::ResourceState dest(1);
  dest = source;  // first assignment may grow the destination
  const uint64_t before = AllocCount();
  for (int i = 0; i < 100; ++i) dest = source;
  EXPECT_EQ(AllocCount(), before)
      << "copy-assign into a warmed destination must reuse capacity";
}

TEST(CaptureAllocTest, SteadyStateCaptureAndFoldAreAllocFree) {
  LockManager lm;
  txn::ShardSnapshot snapshot;
  // A fixed footprint: T1/T2 hold shared locks, T3 waits, plus one
  // resource that churns through create/erase each round.
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(2, 10, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(3, 10, LockMode::kX).ok());  // blocks
  auto one_round = [&](lock::TransactionId churn_tid) {
    ASSERT_TRUE(lm.Acquire(churn_tid, 20, LockMode::kX).ok());
    lm.ReleaseAll(churn_tid);  // R20 goes free and is reclaimed
    (void)snapshot.Capture(lm);
    snapshot.Fold();
  };
  // Warm every buffer: snapshot staging, mirror table, journals, slots.
  for (int i = 0; i < 200; ++i) one_round(4);
  const uint64_t before = AllocCount();
  for (int i = 0; i < 50; ++i) one_round(4);
  EXPECT_EQ(AllocCount(), before)
      << "steady-state capture+fold rounds must not allocate";
}

// The publish with waiters coming and going: each round a resource gains
// a waiter (copied into the mirror, its waiter's record staged) and loses
// it again (erased from the mirror), a standing waiter stays blocked, and
// uncontended churn never reaches the mirror.  Only the Capture+Fold
// windows are counted: a release that grants returns a vector.
TEST(CaptureAllocTest, SteadyStateCaptureWithWaiterChurnIsAllocFree) {
  LockManager lm;
  txn::ShardSnapshot snapshot;
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(2, 10, LockMode::kX).ok());  // blocks for good
  uint64_t publish_allocs = 0;
  auto publish = [&] {
    const uint64_t before = AllocCount();
    const txn::ShardCaptureStats stats = snapshot.Capture(lm);
    snapshot.Fold();
    publish_allocs += AllocCount() - before;
    return stats;
  };
  EXPECT_EQ(publish().dirty, 1u);  // R10
  auto one_round = [&] {
    for (lock::ResourceId rid = 100; rid < 110; ++rid) {
      ASSERT_TRUE(lm.Acquire(3, rid, LockMode::kX).ok());
    }
    lm.ReleaseAll(3);  // waiter-free churn: never staged
    ASSERT_TRUE(lm.Acquire(4, 30, LockMode::kX).ok());
    ASSERT_TRUE(lm.Acquire(5, 30, LockMode::kS).ok());  // blocks
    ASSERT_EQ(lm.NumBlocked(), 2u);
    EXPECT_EQ(publish().dirty, 1u);  // R30 copied
    ASSERT_NE(snapshot.table().Find(30), nullptr);
    ASSERT_NE(snapshot.FindWaitInfo(5), nullptr);
    lm.ReleaseAll(4);  // grants T5
    lm.ReleaseAll(5);
    EXPECT_EQ(publish().dirty, 1u);  // R30 erased
    ASSERT_EQ(snapshot.table().Find(30), nullptr);
    ASSERT_EQ(snapshot.FindWaitInfo(5), nullptr);
    ASSERT_NE(snapshot.FindWaitInfo(2), nullptr);
    ASSERT_EQ(snapshot.table().size(), 1u);  // R10 only
  };
  for (int i = 0; i < 200; ++i) one_round();
  publish_allocs = 0;
  for (int i = 0; i < 50; ++i) one_round();
  EXPECT_EQ(publish_allocs, 0u)
      << "steady-state capture+fold rounds must not allocate";
}

TEST(CaptureAllocTest, LockTableChurnReusesFreedSlots) {
  lock::LockTable table;
  // Warm the hash table's slots and buckets across the rid range.  The round
  // count is what it takes the mutation journal to fill its retention
  // ring and enter its compaction steady state — only then do appends
  // stop growing the backing vector.
  for (int round = 0; round < 2200; ++round) {
    for (lock::ResourceId rid = 1; rid <= 32; ++rid) {
      lock::ResourceState& state = table.GetOrCreate(rid);
      ASSERT_TRUE(state.TryFastGrant(1, LockMode::kX));
    }
    for (lock::ResourceId rid = 1; rid <= 32; ++rid) {
      table.FindMutable(rid)->Remove(1);
      table.EraseIfFree(rid);
    }
  }
  const uint64_t before = AllocCount();
  for (int round = 0; round < 20; ++round) {
    for (lock::ResourceId rid = 1; rid <= 32; ++rid) {
      lock::ResourceState& state = table.GetOrCreate(rid);
      ASSERT_TRUE(state.TryFastGrant(1, LockMode::kX));
    }
    for (lock::ResourceId rid = 1; rid <= 32; ++rid) {
      table.FindMutable(rid)->Remove(1);
      table.EraseIfFree(rid);
    }
  }
  EXPECT_EQ(AllocCount(), before)
      << "steady-state create/erase churn must reuse freed slots";
}

TEST(CaptureAllocTest, UncontendedAcquireReleaseIsAllocFree) {
  LockManager lm;
  // Warm: the txn bookkeeping entry, its touched set, the resource slot.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(lm.Acquire(1, 5, LockMode::kX).ok());
    lm.ReleaseAll(1);
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(lm.Acquire(1, 5, LockMode::kX).ok());
    lm.ReleaseAll(1);
  }
  EXPECT_EQ(AllocCount(), before)
      << "uncontended acquire/release must ride the fast path alloc-free";
}

// The client call path of the sharded service: the commit takes its
// shard locks as a mask and gathers its rids inline, and the transaction
// table allocates only when a chunk fills, at power-of-two tid counts.
TEST(CaptureAllocTest, SteadyStateServiceTransactionIsAllocFree) {
  txn::ConcurrentServiceOptions options;
  options.num_shards = 4;
  options.detection_mode = txn::DetectionMode::kPeriodic;
  auto created = txn::ConcurrentLockService::Create(options);
  ASSERT_TRUE(created.ok());
  txn::ConcurrentLockService& service = **created;
  // Eight uncontended X locks a transaction, from 512 rids that spread
  // over all four shards.
  auto one_txn = [&](uint32_t round) {
    const Result<lock::TransactionId> tid = service.Begin();
    ASSERT_TRUE(tid.ok());
    for (lock::ResourceId i = 1; i <= 8; ++i) {
      const Result<lock::RequestOutcome> outcome =
          service.AcquireAsync(*tid, (round % 64) * 8 + i, LockMode::kX);
      ASSERT_TRUE(outcome.ok() && *outcome == lock::RequestOutcome::kGranted);
    }
    ASSERT_TRUE(service.Commit(*tid).ok());
  };
  // Warm every buffer: the shards' transaction and resource tables, the
  // cost table, and each shard's mutation journal, which grows until it
  // has filled its retention ring and compacted (about 2^17 records a
  // shard, four or so per transaction).
  for (uint32_t round = 0; round < 50'000; ++round) one_txn(round);
  for (size_t shard = 0; shard < 4; ++shard) {
    ASSERT_GT(service.shard_stats(shard).ops, 0u);
  }
  // Tids 50,001 to 51,000 lie in one chunk of the transaction table
  // (indices 32,704 to 65,471).
  const uint64_t before = AllocCount();
  for (uint32_t round = 0; round < 1'000; ++round) one_txn(round);
  EXPECT_EQ(AllocCount(), before)
      << "a steady-state Begin, 8 acquires and Commit must not allocate";
  EXPECT_EQ(service.live_transactions(), 0u);
}

}  // namespace
}  // namespace twbg
