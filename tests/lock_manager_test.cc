// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "lock/lock_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace twbg::lock {
namespace {

using enum LockMode;

RequestOutcome MustAcquire(LockManager& lm, TransactionId tid, ResourceId rid,
                           LockMode mode) {
  Result<RequestOutcome> outcome = lm.Acquire(tid, rid, mode);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return *outcome;
}

TEST(LockManagerTest, GrantAndBlockBookkeeping) {
  LockManager lm;
  EXPECT_EQ(MustAcquire(lm, 1, 10, kX), RequestOutcome::kGranted);
  EXPECT_FALSE(lm.IsBlocked(1));
  EXPECT_EQ(MustAcquire(lm, 2, 10, kS), RequestOutcome::kBlocked);
  EXPECT_TRUE(lm.IsBlocked(2));
  EXPECT_EQ(lm.BlockedOn(2), std::optional<ResourceId>(10));
  EXPECT_TRUE(lm.CheckInvariants().ok());
}

TEST(LockManagerTest, BlockedTransactionCannotRequest) {
  LockManager lm;
  MustAcquire(lm, 1, 10, kX);
  MustAcquire(lm, 2, 10, kS);  // blocks
  // Axiom 1: a blocked transaction waits on at most one resource.
  EXPECT_TRUE(lm.Acquire(2, 11, kS).status().IsFailedPrecondition());
  EXPECT_TRUE(lm.Acquire(2, 10, kS).status().IsFailedPrecondition());
}

TEST(LockManagerTest, ReleaseAllGrantsWaiters) {
  LockManager lm;
  MustAcquire(lm, 1, 10, kX);
  MustAcquire(lm, 2, 10, kS);
  MustAcquire(lm, 3, 10, kS);
  std::vector<TransactionId> granted = lm.ReleaseAll(1);
  EXPECT_EQ(granted, (std::vector<TransactionId>{2, 3}));
  EXPECT_FALSE(lm.IsBlocked(2));
  EXPECT_FALSE(lm.IsBlocked(3));
  EXPECT_EQ(lm.Info(1), nullptr);  // forgotten
  EXPECT_TRUE(lm.CheckInvariants().ok());
}

TEST(LockManagerTest, ReleaseAllCoversMultipleResources) {
  LockManager lm;
  MustAcquire(lm, 1, 10, kX);
  MustAcquire(lm, 1, 11, kX);
  MustAcquire(lm, 2, 10, kS);
  MustAcquire(lm, 3, 11, kS);
  std::vector<TransactionId> granted = lm.ReleaseAll(1);
  EXPECT_EQ(granted.size(), 2u);
  EXPECT_EQ(lm.BlockedTransactions().size(), 0u);
  // Freed resources are reclaimed once nobody uses them.
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
  EXPECT_TRUE(lm.table().empty());
}

TEST(LockManagerTest, ReleaseBlockedTransactionRemovesQueueEntry) {
  LockManager lm;
  MustAcquire(lm, 1, 10, kX);
  MustAcquire(lm, 2, 10, kX);  // queued
  MustAcquire(lm, 3, 10, kS);  // queued
  EXPECT_TRUE(lm.ReleaseAll(2).empty());  // aborting a mid-queue waiter
  EXPECT_EQ(lm.table().Find(10)->queue().size(), 1u);
  EXPECT_TRUE(lm.CheckInvariants().ok());
}

TEST(LockManagerTest, ReleaseUnknownTransactionIsNoop) {
  LockManager lm;
  EXPECT_TRUE(lm.ReleaseAll(99).empty());
}

TEST(LockManagerTest, ConversionTracksBlockedMode) {
  LockManager lm;
  MustAcquire(lm, 1, 10, kIS);
  MustAcquire(lm, 2, 10, kIX);
  EXPECT_EQ(MustAcquire(lm, 1, 10, kS), RequestOutcome::kBlocked);
  const TxnLockInfo* info = lm.Info(1);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->blocked_mode, kS);  // Conv(IS, S)
  EXPECT_EQ(info->blocked_on, std::optional<ResourceId>(10));
}

TEST(LockManagerTest, RescheduleAfterTdr2GrantsAndUnblocks) {
  LockManager lm;
  MustAcquire(lm, 7, 2, kIS);
  MustAcquire(lm, 8, 2, kX);
  MustAcquire(lm, 9, 2, kIX);
  MustAcquire(lm, 3, 2, kS);
  ASSERT_TRUE(lm.ApplyTdr2(2, 3).ok());
  std::vector<TransactionId> granted = lm.Reschedule(2);
  EXPECT_EQ(granted, (std::vector<TransactionId>{9}));
  EXPECT_FALSE(lm.IsBlocked(9));
  EXPECT_TRUE(lm.IsBlocked(3));
  EXPECT_TRUE(lm.CheckInvariants().ok());
}

TEST(LockManagerTest, ApplyTdr2OnUnknownResourceFails) {
  LockManager lm;
  EXPECT_TRUE(lm.ApplyTdr2(5, 1).IsNotFound());
}

TEST(LockManagerTest, KnownAndBlockedTransactionLists) {
  LockManager lm;
  MustAcquire(lm, 2, 10, kX);
  MustAcquire(lm, 1, 10, kS);
  MustAcquire(lm, 3, 11, kS);
  EXPECT_EQ(lm.KnownTransactions(), (std::vector<TransactionId>{1, 2, 3}));
  EXPECT_EQ(lm.BlockedTransactions(), (std::vector<TransactionId>{1}));
}

// The kept blocked set: ascending, equal to {tid : blocked_on}, and
// consistent with the table after every step.
void ExpectBlockedSet(const LockManager& lm,
                      const std::vector<TransactionId>& expected) {
  EXPECT_EQ(lm.BlockedTransactions(), expected);
  EXPECT_EQ(lm.NumBlocked(), expected.size());
  for (TransactionId tid : lm.KnownTransactions()) {
    EXPECT_EQ(lm.IsBlocked(tid),
              std::binary_search(expected.begin(), expected.end(), tid))
        << "T" << tid;
  }
  const Status invariants = lm.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
}

TEST(LockManagerTest, BlockedSetFollowsEveryWayInAndOut) {
  LockManager lm;
  // In: a queue block.
  EXPECT_EQ(MustAcquire(lm, 1, 10, kX), RequestOutcome::kGranted);
  ExpectBlockedSet(lm, {});
  EXPECT_EQ(MustAcquire(lm, 6, 10, kX), RequestOutcome::kBlocked);
  ExpectBlockedSet(lm, {6});
  // In: a conversion block, inserted ahead of a higher tid.
  MustAcquire(lm, 2, 11, kIS);
  MustAcquire(lm, 3, 11, kIS);
  EXPECT_EQ(MustAcquire(lm, 2, 11, kX), RequestOutcome::kBlocked);
  ExpectBlockedSet(lm, {2, 6});
  MustAcquire(lm, 4, 12, kX);
  EXPECT_EQ(MustAcquire(lm, 9, 12, kX), RequestOutcome::kBlocked);
  EXPECT_EQ(MustAcquire(lm, 8, 12, kS), RequestOutcome::kBlocked);
  ExpectBlockedSet(lm, {2, 6, 8, 9});

  // Out: a grant by ReleaseOn (T3 leaves R11, T2's conversion lands).
  EXPECT_EQ(lm.ReleaseOn(3, 11), (std::vector<TransactionId>{2}));
  ExpectBlockedSet(lm, {6, 8, 9});
  lm.Forget(3);
  ExpectBlockedSet(lm, {6, 8, 9});
  // Out: CancelWait (T8 stays queued behind T4).
  Result<std::vector<TransactionId>> cancelled = lm.CancelWait(9);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_TRUE(cancelled->empty());
  ExpectBlockedSet(lm, {6, 8});
  // Out: ReleaseAll of a blocked transaction (an abort).
  EXPECT_TRUE(lm.ReleaseAll(8).empty());
  ExpectBlockedSet(lm, {6});
  // Out: ReleaseOn + Forget of a blocked transaction (the cross-shard
  // abort).  Between the two the table no longer has T6 but its
  // bookkeeping does, so only the end state is checked.
  EXPECT_TRUE(lm.ReleaseOn(6, 10).empty());
  lm.Forget(6);
  ExpectBlockedSet(lm, {});

  // Out: a grant by Reschedule after a TDR-2.
  MustAcquire(lm, 17, 2, kIS);
  MustAcquire(lm, 18, 2, kX);
  MustAcquire(lm, 19, 2, kIX);
  MustAcquire(lm, 13, 2, kS);
  ExpectBlockedSet(lm, {13, 18, 19});
  // TDR-2 leaves a grantable queue front until Step 3 reschedules, so the
  // table invariants hold again only after Reschedule.
  ASSERT_TRUE(lm.ApplyTdr2(2, 13).ok());
  EXPECT_EQ(lm.BlockedTransactions(),
            (std::vector<TransactionId>{13, 18, 19}));
  EXPECT_EQ(lm.Reschedule(2), (std::vector<TransactionId>{19}));
  ExpectBlockedSet(lm, {13, 18});
  // Out: a grant by ReleaseAll of the holder.
  EXPECT_EQ(lm.ReleaseAll(1), (std::vector<TransactionId>{}));
  EXPECT_EQ(lm.ReleaseAll(17), (std::vector<TransactionId>{}));
  EXPECT_EQ(lm.ReleaseAll(19), (std::vector<TransactionId>{13}));
  ExpectBlockedSet(lm, {18});
}

// A new transaction's bookkeeping reuses the slot a finished one freed.
// Nothing of the previous occupant may show through, above all not its
// wait span, which the manager deliberately keeps past a wakeup.
TEST(LockManagerTest, ReusedBookkeepingSlotStartsFresh) {
  LockManager lm;
  MustAcquire(lm, 1, 10, kX);
  MustAcquire(lm, 2, 11, kX);
  EXPECT_EQ(MustAcquire(lm, 2, 10, kX), RequestOutcome::kBlocked);
  const TxnLockInfo* previous = lm.Info(2);
  ASSERT_NE(previous, nullptr);
  ASSERT_NE(previous->wait_span, 0u);
  // The cross-shard abort path: release each resource, then forget.
  lm.ReleaseOn(2, 10);
  lm.ReleaseOn(2, 11);
  lm.Forget(2);
  ASSERT_EQ(lm.Info(2), nullptr);

  EXPECT_EQ(MustAcquire(lm, 3, 12, kS), RequestOutcome::kGranted);
  const TxnLockInfo* info = lm.Info(3);
  EXPECT_EQ(info, previous);  // the freed slot was reused
  EXPECT_EQ(std::vector<ResourceId>(info->touched.begin(), info->touched.end()),
            std::vector<ResourceId>{12});
  EXPECT_FALSE(info->blocked_on.has_value());
  EXPECT_EQ(info->blocked_mode, kNL);
  EXPECT_EQ(info->wait_span, 0u);
  EXPECT_EQ(lm.WaitSpan(3), 0u);
  EXPECT_TRUE(lm.BlockedTransactions().empty());
  EXPECT_TRUE(lm.CheckInvariants().ok());
}

TEST(LockManagerTest, InvalidTransactionIdRejected) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(0, 1, kS).status().IsInvalidArgument());
}

TEST(LockManagerTest, RandomizedBookkeepingConsistency) {
  common::Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    LockManager lm;
    for (int op = 0; op < 120; ++op) {
      TransactionId tid = static_cast<TransactionId>(rng.NextInRange(1, 10));
      if (rng.NextBernoulli(0.2)) {
        lm.ReleaseAll(tid);
      } else {
        ResourceId rid = static_cast<ResourceId>(rng.NextInRange(1, 5));
        LockMode mode = kRealModes[rng.NextBelow(5)];
        (void)lm.Acquire(tid, rid, mode);  // may fail if blocked: fine
      }
      Status invariants = lm.CheckInvariants();
      ASSERT_TRUE(invariants.ok()) << invariants.ToString();
    }
  }
}

}  // namespace
}  // namespace twbg::lock
