// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Tests for the TST internal structure of §5 (Figure 5.1): entry set,
// W-edge-first ordering, pr bookkeeping and sentinels.

#include "core/tst.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detection_engine.h"
#include "core/examples_catalog.h"
#include "lock/lock_manager.h"

namespace twbg::core {
namespace {

using enum lock::LockMode;

TEST(TstTest, Example41MatchesFigure51) {
  lock::LockManager lm;
  BuildExample41(lm);
  Tst tst = Tst::Build(lm.table());

  EXPECT_EQ(tst.size(), 9u);
  EXPECT_EQ(tst.Transactions(),
            (std::vector<lock::TransactionId>{1, 2, 3, 4, 5, 6, 7, 8, 9}));

  // T1: blocked converter (no pr), H edges to T2 and T5.
  const TstEntry& t1 = tst.At(1);
  EXPECT_FALSE(t1.pr.has_value());
  ASSERT_EQ(t1.waited.size(), 2u);
  EXPECT_EQ(t1.waited[0].to, 2u);
  EXPECT_EQ(t1.waited[1].to, 5u);
  EXPECT_TRUE(t1.waited[0].IsH());

  // T3: waits in R2's queue; W edge to T4 first, then H edges T1, T2, T6.
  const TstEntry& t3 = tst.At(3);
  EXPECT_EQ(t3.pr, std::optional<lock::ResourceId>(kR2));
  ASSERT_EQ(t3.waited.size(), 4u);
  EXPECT_TRUE(t3.waited[0].IsW());
  EXPECT_EQ(t3.waited[0].to, 4u);
  EXPECT_EQ(t3.waited[0].lock, kS);
  EXPECT_EQ(t3.waited[1].to, 1u);
  EXPECT_EQ(t3.waited[2].to, 2u);
  EXPECT_EQ(t3.waited[3].to, 6u);

  // T4: last in R2's queue — sentinel W edge only.
  const TstEntry& t4 = tst.At(4);
  EXPECT_EQ(t4.pr, std::optional<lock::ResourceId>(kR2));
  ASSERT_EQ(t4.waited.size(), 1u);
  EXPECT_TRUE(t4.waited[0].IsSentinel());
  EXPECT_EQ(t4.waited[0].lock, kX);

  // T7: last in R1's queue (sentinel) plus H edge to T8.
  const TstEntry& t7 = tst.At(7);
  EXPECT_EQ(t7.pr, std::optional<lock::ResourceId>(kR1));
  ASSERT_EQ(t7.waited.size(), 2u);
  EXPECT_TRUE(t7.waited[0].IsSentinel());
  EXPECT_EQ(t7.waited[0].lock, kIX);
  EXPECT_EQ(t7.waited[1].to, 8u);
  EXPECT_TRUE(t7.waited[1].IsH());

  // Unblocked holder with no waiters has an empty list.
  // (T4 is queued; T9 waits; check a mid-queue entry instead.)
  const TstEntry& t5 = tst.At(5);
  ASSERT_EQ(t5.waited.size(), 1u);
  EXPECT_EQ(t5.waited[0].to, 6u);
  EXPECT_EQ(t5.waited[0].lock, kIX);  // W edge carries the source's bm
}

TEST(TstTest, Example51WEdgePrecedesHEdges) {
  lock::LockManager lm;
  BuildExample51(lm);
  Tst tst = Tst::Build(lm.table());
  // T2 waits in R1's queue and holds R2: W edge (X, T3) must precede the
  // H edge to T1 — this ordering makes the walk find {T1,T2,T3} before
  // {T1,T2} (paper's Example 5.1).
  const TstEntry& t2 = tst.At(2);
  ASSERT_EQ(t2.waited.size(), 2u);
  EXPECT_TRUE(t2.waited[0].IsW());
  EXPECT_EQ(t2.waited[0].to, 3u);
  EXPECT_TRUE(t2.waited[1].IsH());
  EXPECT_EQ(t2.waited[1].to, 1u);
}

TEST(TstTest, WalkBookkeepingStartsClean) {
  lock::LockManager lm;
  BuildExample51(lm);
  Tst tst = Tst::Build(lm.table());
  for (lock::TransactionId tid : tst.Transactions()) {
    const TstEntry& entry = tst.At(tid);
    EXPECT_EQ(entry.ancestor, 0);
    EXPECT_EQ(entry.current, 0u);
  }
}

TEST(TstTest, CurrentNilSemantics) {
  TstEntry entry;
  EXPECT_TRUE(entry.CurrentIsNil());  // no edges at all
  const TwbgEdge edges[] = {TwbgEdge{1, 2, kNL, 1}};
  entry.waited = std::span<const TwbgEdge>(edges);
  entry.current = 0;
  EXPECT_FALSE(entry.CurrentIsNil());
  entry.SetCurrentNil();
  EXPECT_TRUE(entry.CurrentIsNil());
}

TEST(TstTest, NumEdgesCountsSentinels) {
  lock::LockManager lm;
  BuildExample41(lm);
  Tst tst = Tst::Build(lm.table());
  EXPECT_EQ(tst.NumEdges(), 14u);  // 12 real + 2 sentinels
}

TEST(TstTest, EmptyTableYieldsEmptyTst) {
  lock::LockTable table;
  Tst tst = Tst::Build(table);
  EXPECT_EQ(tst.size(), 0u);
  EXPECT_EQ(tst.NumEdges(), 0u);
}

TEST(TstTest, ToStringShowsStructure) {
  lock::LockManager lm;
  BuildExample51(lm);
  Tst tst = Tst::Build(lm.table());
  std::string s = tst.ToString();
  EXPECT_NE(s.find("T2: pr=R1"), std::string::npos);
  EXPECT_NE(s.find("(X, T3)"), std::string::npos);
  EXPECT_NE(s.find("(NL, T1)"), std::string::npos);
}

// The Assemble input contract: `txns` may hold duplicates in any order and
// may omit edge sources.  A sorted, duplicate-free vertex set takes the
// presorted path; the same ids shuffled with duplicates, and a sorted set
// missing some edge sources, take the sorting path.  All three must give
// the same table and, walked over identical lock states, the same
// resolution.
std::vector<lock::TransactionId> Participants(const lock::LockTable& table) {
  std::vector<lock::TransactionId> txns;
  for (const auto& [rid, state] : table) {
    for (const lock::HolderEntry& h : state.holders()) txns.push_back(h.tid);
    for (const lock::QueueEntry& q : state.queue()) txns.push_back(q.tid);
  }
  std::sort(txns.begin(), txns.end());
  txns.erase(std::unique(txns.begin(), txns.end()), txns.end());
  return txns;
}

void ExpectAssembleInputsAgree(
    const std::function<void(lock::LockManager&)>& build, common::Rng& rng,
    const std::string& context) {
  lock::LockManager probe;
  build(probe);
  const std::vector<TwbgEdge> edges =
      BuildEcrEdges(probe.table(), /*include_sentinels=*/true);
  std::vector<lock::TransactionId> sorted = Participants(probe.table());

  std::vector<lock::TransactionId> shuffled = sorted;
  for (size_t i = 0; i < sorted.size(); i += 2) shuffled.push_back(sorted[i]);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
  }
  // Every other edge source left out (sorting path adds them back).
  std::vector<lock::TransactionId> missing = sorted;
  for (size_t j = 0; j < edges.size(); j += 2) {
    missing.erase(std::remove(missing.begin(), missing.end(), edges[j].from),
                  missing.end());
  }
  ASSERT_TRUE(edges.empty() || missing.size() < sorted.size()) << context;

  std::string expected_tst, expected_report;
  for (const auto* txns : {&sorted, &shuffled, &missing}) {
    lock::LockManager lm;
    build(lm);
    Tst tst = Tst::FromEdges(edges, *txns);
    EXPECT_EQ(tst.Transactions(), sorted) << context;
    CostTable costs;
    const DetectorOptions options;
    WalkOutcome walk = RunWalk(tst, tst.Transactions(), lm, costs, options);
    const std::string report =
        ApplyResolution(std::move(walk), lm, costs, options).ToString();
    if (txns == &sorted) {
      expected_tst = tst.ToString();
      expected_report = report;
      EXPECT_EQ(expected_tst, Tst::Build(probe.table()).ToString()) << context;
      continue;
    }
    EXPECT_EQ(tst.ToString(), expected_tst) << context;
    EXPECT_EQ(report, expected_report) << context;
  }
}

TEST(TstTest, AssembleAcceptsAnyVertexSetOrderAndCover) {
  common::Rng rng(515);
  ExpectAssembleInputsAgree(BuildExample41, rng, "example 4.1");
  ExpectAssembleInputsAgree(BuildExample51, rng, "example 5.1");
  struct Request {
    lock::TransactionId tid;
    lock::ResourceId rid;
    lock::LockMode mode;
  };
  for (int round = 0; round < 100; ++round) {
    std::vector<Request> requests(40);
    for (Request& r : requests) {
      r.tid = static_cast<lock::TransactionId>(rng.NextInRange(1, 8));
      r.rid = static_cast<lock::ResourceId>(rng.NextInRange(1, 6));
      r.mode = lock::kRealModes[rng.NextBelow(5)];
    }
    ExpectAssembleInputsAgree(
        [&](lock::LockManager& lm) {
          for (const Request& r : requests) {
            (void)lm.Acquire(r.tid, r.rid, r.mode);
          }
        },
        rng, "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace twbg::core
