// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Tests for the per-resource scheduling policy of §3: FIFO queueing,
// conversion grants/blocks, the UPR positioning rules, total-mode
// maintenance, release-time rescheduling and the TDR-2 AV/ST split.

#include "lock/resource_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace twbg::lock {
namespace {

using enum LockMode;

RequestOutcome MustRequest(ResourceState& r, TransactionId tid,
                           LockMode mode) {
  Result<RequestOutcome> outcome = r.Request(tid, mode);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(r.CheckInvariants().ok()) << r.CheckInvariants().ToString();
  return *outcome;
}

std::vector<TransactionId> HolderIds(const ResourceState& r) {
  std::vector<TransactionId> out;
  for (const HolderEntry& h : r.holders()) out.push_back(h.tid);
  return out;
}

std::vector<TransactionId> QueueIds(const ResourceState& r) {
  std::vector<TransactionId> out;
  for (const QueueEntry& q : r.queue()) out.push_back(q.tid);
  return out;
}

TEST(ResourceStateTest, FirstRequestGranted) {
  ResourceState r(1);
  EXPECT_EQ(MustRequest(r, 1, kX), RequestOutcome::kGranted);
  EXPECT_EQ(r.total_mode(), kX);
  EXPECT_EQ(r.holders().size(), 1u);
  EXPECT_TRUE(r.queue().empty());
}

TEST(ResourceStateTest, CompatibleRequestsShare) {
  ResourceState r(1);
  MustRequest(r, 1, kIS);
  MustRequest(r, 2, kIX);
  EXPECT_EQ(MustRequest(r, 3, kIX), RequestOutcome::kGranted);
  EXPECT_EQ(r.total_mode(), kIX);
  EXPECT_EQ(r.holders().size(), 3u);
}

TEST(ResourceStateTest, ConflictingRequestQueues) {
  ResourceState r(1);
  MustRequest(r, 1, kS);
  EXPECT_EQ(MustRequest(r, 2, kX), RequestOutcome::kBlocked);
  EXPECT_EQ(QueueIds(r), (std::vector<TransactionId>{2}));
  EXPECT_EQ(r.total_mode(), kS);  // queue members do not contribute to tm
}

TEST(ResourceStateTest, FifoBlocksCompatibleRequestBehindIncompatible) {
  // §3: "If the queue is not empty, then the request is not granted" even
  // when the mode would be compatible with tm.
  ResourceState r(1);
  MustRequest(r, 1, kS);
  MustRequest(r, 2, kX);  // queues
  EXPECT_EQ(MustRequest(r, 3, kS), RequestOutcome::kBlocked);
  EXPECT_EQ(QueueIds(r), (std::vector<TransactionId>{2, 3}));
}

TEST(ResourceStateTest, RepeatRequestIsAlreadyHeld) {
  ResourceState r(1);
  MustRequest(r, 1, kSIX);
  EXPECT_EQ(MustRequest(r, 1, kIS), RequestOutcome::kAlreadyHeld);
  EXPECT_EQ(MustRequest(r, 1, kS), RequestOutcome::kAlreadyHeld);
  EXPECT_EQ(MustRequest(r, 1, kSIX), RequestOutcome::kAlreadyHeld);
  EXPECT_EQ(r.total_mode(), kSIX);
}

TEST(ResourceStateTest, ConversionGrantedWhenCompatibleWithOtherGrants) {
  ResourceState r(1);
  MustRequest(r, 1, kIS);
  MustRequest(r, 2, kIS);
  EXPECT_EQ(MustRequest(r, 1, kIX), RequestOutcome::kGranted);
  EXPECT_EQ(r.FindHolder(1)->granted, kIX);
  EXPECT_EQ(r.total_mode(), kIX);
}

TEST(ResourceStateTest, ConversionBlockedRaisesTotalMode) {
  // Paper's Example 3.1: T1 holds IS, T2 holds IX; T1 re-requests S.
  ResourceState r(1);
  MustRequest(r, 1, kIS);
  MustRequest(r, 2, kIX);
  EXPECT_EQ(r.total_mode(), kIX);
  EXPECT_EQ(MustRequest(r, 1, kS), RequestOutcome::kBlocked);
  const HolderEntry* h = r.FindHolder(1);
  EXPECT_EQ(h->granted, kIS);
  EXPECT_EQ(h->blocked, kS);
  // tm folds the blocked mode in: Conv(IX, S) = SIX.
  EXPECT_EQ(r.total_mode(), kSIX);
}

TEST(ResourceStateTest, BlockedConverterLeadsTheHolderList) {
  ResourceState r(1);
  MustRequest(r, 1, kIS);
  MustRequest(r, 2, kIX);
  MustRequest(r, 1, kS);  // blocks
  EXPECT_EQ(HolderIds(r), (std::vector<TransactionId>{1, 2}));
  EXPECT_TRUE(r.holders()[0].IsBlocked());
  EXPECT_FALSE(r.holders()[1].IsBlocked());
}

TEST(ResourceStateTest, Upr2OrdersExample41Upgraders) {
  // Example 4.1 build order: T2 (IS->S) blocks first, then T1 (IX->SIX);
  // UPR-2 places T1 before T2.
  ResourceState r(1);
  MustRequest(r, 1, kIX);
  MustRequest(r, 2, kIS);
  MustRequest(r, 3, kIX);
  MustRequest(r, 4, kIS);
  EXPECT_EQ(MustRequest(r, 2, kS), RequestOutcome::kBlocked);
  EXPECT_EQ(MustRequest(r, 1, kS), RequestOutcome::kBlocked);
  EXPECT_EQ(HolderIds(r), (std::vector<TransactionId>{1, 2, 3, 4}));
  EXPECT_EQ(r.FindHolder(1)->blocked, kSIX);  // Conv(IX, S)
  EXPECT_EQ(r.FindHolder(2)->blocked, kS);
  EXPECT_EQ(r.total_mode(), kSIX);
}

TEST(ResourceStateTest, UprOrderIsArrivalOrderIndependent) {
  // The reverse build order (T1 blocks first, then T2 lands by UPR-3)
  // yields the same final order — the positioning is canonical.
  ResourceState r(1);
  MustRequest(r, 1, kIX);
  MustRequest(r, 2, kIS);
  MustRequest(r, 3, kIX);
  MustRequest(r, 4, kIS);
  EXPECT_EQ(MustRequest(r, 1, kS), RequestOutcome::kBlocked);
  EXPECT_EQ(MustRequest(r, 2, kS), RequestOutcome::kBlocked);
  EXPECT_EQ(HolderIds(r), (std::vector<TransactionId>{1, 2, 3, 4}));
}

TEST(ResourceStateTest, Upr1GroupsCompatibleUpgraders) {
  // Two IS->S upgraders blocked by an IX holder have compatible blocked
  // modes; UPR-1 inserts the second right before the first.
  ResourceState r(1);
  MustRequest(r, 1, kIX);
  MustRequest(r, 2, kIS);
  MustRequest(r, 3, kIS);
  EXPECT_EQ(MustRequest(r, 2, kS), RequestOutcome::kBlocked);
  EXPECT_EQ(MustRequest(r, 3, kS), RequestOutcome::kBlocked);
  EXPECT_EQ(HolderIds(r), (std::vector<TransactionId>{3, 2, 1}));
}

TEST(ResourceStateTest, Upr3ConversionDeadlockWithinHolderList) {
  // Observation 3.1(3): two IS->X upgraders block each other — a deadlock
  // entirely inside one holder list.
  ResourceState r(1);
  MustRequest(r, 1, kIS);
  MustRequest(r, 2, kIS);
  EXPECT_EQ(MustRequest(r, 1, kX), RequestOutcome::kBlocked);
  EXPECT_EQ(MustRequest(r, 2, kX), RequestOutcome::kBlocked);
  EXPECT_EQ(HolderIds(r), (std::vector<TransactionId>{1, 2}));
  EXPECT_TRUE(r.holders()[0].IsBlocked());
  EXPECT_TRUE(r.holders()[1].IsBlocked());
}

TEST(ResourceStateTest, RemoveHolderGrantsConversionsThenQueue) {
  // T1 holds IX blocking T2's IS->S upgrade and queued T3 (S).  When T1
  // leaves, the upgrade is granted first, then the queue is drained while
  // compatible.
  ResourceState r(1);
  MustRequest(r, 1, kIX);
  MustRequest(r, 2, kIS);
  MustRequest(r, 2, kS);  // blocked upgrade
  MustRequest(r, 3, kS);  // queued (tm = SIX)
  std::vector<TransactionId> granted = r.Remove(1);
  EXPECT_EQ(granted, (std::vector<TransactionId>{2, 3}));
  EXPECT_TRUE(r.CheckInvariants().ok());
  EXPECT_EQ(r.FindHolder(2)->granted, kS);
  EXPECT_EQ(r.FindHolder(2)->blocked, kNL);
  EXPECT_EQ(r.FindHolder(3)->granted, kS);
  EXPECT_EQ(r.total_mode(), kS);
}

TEST(ResourceStateTest, RemoveGrantsCompatibleUpgraderChain) {
  ResourceState r(1);
  MustRequest(r, 1, kS);   // blocker
  MustRequest(r, 2, kIS);
  MustRequest(r, 3, kIS);
  MustRequest(r, 2, kIX);  // blocked (IX vs S)
  MustRequest(r, 3, kIX);  // blocked, UPR-1 puts T3 first
  std::vector<TransactionId> granted = r.Remove(1);
  EXPECT_EQ(granted, (std::vector<TransactionId>{3, 2}));
  EXPECT_EQ(r.total_mode(), kIX);
  for (const HolderEntry& h : r.holders()) EXPECT_FALSE(h.IsBlocked());
}

TEST(ResourceStateTest, QueueDrainStopsAtFirstConflict) {
  ResourceState r(1);
  MustRequest(r, 1, kX);
  MustRequest(r, 2, kS);  // queued
  MustRequest(r, 3, kS);  // queued
  MustRequest(r, 4, kX);  // queued
  MustRequest(r, 5, kS);  // queued
  std::vector<TransactionId> granted = r.Remove(1);
  // S, S admitted; X conflicts with tm = S; T5 stays behind FIFO.
  EXPECT_EQ(granted, (std::vector<TransactionId>{2, 3}));
  EXPECT_EQ(QueueIds(r), (std::vector<TransactionId>{4, 5}));
}

TEST(ResourceStateTest, RemoveQueueFrontUnblocksSuccessor) {
  ResourceState r(1);
  MustRequest(r, 1, kS);
  MustRequest(r, 2, kX);  // queued front
  MustRequest(r, 3, kS);  // queued behind, compatible with tm
  std::vector<TransactionId> granted = r.Remove(2);  // abort the front
  EXPECT_EQ(granted, (std::vector<TransactionId>{3}));
  EXPECT_TRUE(r.queue().empty());
}

TEST(ResourceStateTest, RemoveMiddleQueueMemberGrantsNothing) {
  ResourceState r(1);
  MustRequest(r, 1, kS);
  MustRequest(r, 2, kX);
  MustRequest(r, 3, kS);
  MustRequest(r, 4, kX);
  EXPECT_TRUE(r.Remove(3).empty());
  EXPECT_EQ(QueueIds(r), (std::vector<TransactionId>{2, 4}));
  EXPECT_TRUE(r.CheckInvariants().ok());
}

TEST(ResourceStateTest, RemoveLastHolderFreesResource) {
  ResourceState r(1);
  MustRequest(r, 1, kX);
  EXPECT_TRUE(r.Remove(1).empty());
  EXPECT_TRUE(r.IsFree());
  EXPECT_EQ(r.total_mode(), kNL);
}

TEST(ResourceStateTest, RemoveUnknownTransactionIsNoop) {
  ResourceState r(1);
  MustRequest(r, 1, kS);
  EXPECT_TRUE(r.Remove(99).empty());
  EXPECT_EQ(r.holders().size(), 1u);
}

TEST(ResourceStateTest, RequestWhileBlockedFails) {
  ResourceState r(1);
  MustRequest(r, 1, kS);
  MustRequest(r, 3, kIS);  // granted alongside T1
  MustRequest(r, 2, kX);   // queued
  EXPECT_TRUE(r.Request(2, kS).status().IsFailedPrecondition());
  // Blocked converter too: T3's IS->X upgrade conflicts with T1's S.
  ASSERT_EQ(MustRequest(r, 3, kX), RequestOutcome::kBlocked);
  EXPECT_TRUE(r.Request(3, kS).status().IsFailedPrecondition());
}

TEST(ResourceStateTest, InvalidRequestsRejected) {
  ResourceState r(1);
  EXPECT_TRUE(r.Request(0, kS).status().IsInvalidArgument());
  EXPECT_TRUE(r.Request(1, kNL).status().IsInvalidArgument());
}

TEST(ResourceStateTest, ComputeAvStExample41R2) {
  // R2: Holder((T7,IS)) Queue((T8,X)(T9,IX)(T3,S)(T4,X)); junction T3.
  ResourceState r(2);
  MustRequest(r, 7, kIS);
  MustRequest(r, 8, kX);
  MustRequest(r, 9, kIX);
  MustRequest(r, 3, kS);
  MustRequest(r, 4, kX);
  Result<ResourceState::AvSt> split = r.ComputeAvSt(3);
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split->av.size(), 2u);
  EXPECT_EQ(split->av[0].tid, 9u);
  EXPECT_EQ(split->av[1].tid, 3u);
  ASSERT_EQ(split->st.size(), 1u);
  EXPECT_EQ(split->st[0].tid, 8u);
}

TEST(ResourceStateTest, ComputeAvStErrors) {
  ResourceState r(1);
  MustRequest(r, 1, kS);
  MustRequest(r, 2, kX);
  MustRequest(r, 3, kX);
  // Not in queue.
  EXPECT_TRUE(r.ComputeAvSt(1).status().IsNotFound());
  EXPECT_TRUE(r.ComputeAvSt(42).status().IsNotFound());
  // Junction's own mode conflicts with tm -> TDR-2 inapplicable.
  EXPECT_TRUE(r.ComputeAvSt(3).status().IsFailedPrecondition());
}

TEST(ResourceStateTest, ApplyTdr2RepositionsExample41R2) {
  ResourceState r(2);
  MustRequest(r, 7, kIS);
  MustRequest(r, 8, kX);
  MustRequest(r, 9, kIX);
  MustRequest(r, 3, kS);
  MustRequest(r, 4, kX);
  ASSERT_TRUE(r.ApplyTdr2(3).ok());
  EXPECT_EQ(QueueIds(r), (std::vector<TransactionId>{9, 3, 8, 4}));
  // Reschedule (the paper's Step 3 via change-list): T9 admitted, T3 not.
  std::vector<TransactionId> granted = r.Reschedule();
  EXPECT_EQ(granted, (std::vector<TransactionId>{9}));
  EXPECT_EQ(QueueIds(r), (std::vector<TransactionId>{3, 8, 4}));
  EXPECT_EQ(r.total_mode(), kIX);
  EXPECT_TRUE(r.CheckInvariants().ok());
}

TEST(ResourceStateTest, RescheduleAtRestIsIdempotent) {
  ResourceState r(1);
  MustRequest(r, 1, kIX);
  MustRequest(r, 2, kIS);
  MustRequest(r, 2, kS);
  MustRequest(r, 3, kS);
  EXPECT_TRUE(r.Reschedule().empty());
  EXPECT_TRUE(r.CheckInvariants().ok());
}

TEST(ResourceStateTest, ToStringMatchesPaperNotation) {
  ResourceState r(1);
  MustRequest(r, 1, kIS);
  MustRequest(r, 2, kIX);
  MustRequest(r, 1, kS);
  MustRequest(r, 3, kS);
  MustRequest(r, 4, kX);
  EXPECT_EQ(r.ToString(),
            "R1(SIX): Holder((T1, IS, S) (T2, IX, NL)) "
            "Queue((T3, S) (T4, X))");
}

// Randomized smoke: invariants hold after arbitrary request/remove
// interleavings.
TEST(ResourceStateTest, RandomizedInvariants) {
  common::Rng rng(2026);
  for (int round = 0; round < 200; ++round) {
    ResourceState r(1);
    for (int op = 0; op < 60; ++op) {
      TransactionId tid = static_cast<TransactionId>(rng.NextInRange(1, 8));
      if (rng.NextBernoulli(0.25)) {
        r.Remove(tid);
      } else {
        LockMode mode = kRealModes[rng.NextBelow(5)];
        // Ignore rejected requests (blocked transactions re-requesting).
        (void)r.Request(tid, mode);
      }
      Status invariants = r.CheckInvariants();
      ASSERT_TRUE(invariants.ok()) << invariants.ToString();
    }
  }
}

// Version stamps come from per-thread blocks of one process-wide counter;
// whatever the interleaving, no two stamps may be equal (a repeated stamp
// would let a derived cache take a changed resource for an unchanged
// one), and none is 0.
TEST(ResourceStateTest, VersionStampsStayUniqueAcrossThreads) {
  constexpr size_t kThreads = 8;
  constexpr size_t kStamps = 100'000;
  std::vector<std::vector<uint64_t>> stamps(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stamps, t] {
      stamps[t].reserve(kStamps);
      for (size_t i = 0; i < kStamps; ++i) {
        stamps[t].push_back(NextStateVersion());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<uint64_t> all;
  for (const std::vector<uint64_t>& mine : stamps) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_NE(all.front(), 0u);
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "a version stamp was handed out twice";
  EXPECT_EQ(all.size(), kThreads * kStamps);
}

}  // namespace
}  // namespace twbg::lock
