// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Tests for victim-candidate enumeration (TDR-1 / TDR-2, §4) and
// minimum-cost selection (§5) on the paper's Example 4.1.

#include "core/victim.h"

#include <gtest/gtest.h>

#include "core/examples_catalog.h"
#include "lock/lock_manager.h"

namespace twbg::core {
namespace {

using enum lock::LockMode;

// The paper's four-TRRP cycle of Example 4.1.
const std::vector<lock::TransactionId> kMainCycle = {1, 2, 5, 6, 7, 8, 9, 3};

struct Fixture {
  lock::LockManager lm;
  HwTwbg graph;
  CostTable costs;
  DetectorOptions options;

  Fixture() {
    BuildExample41(lm);
    graph = HwTwbg::Build(lm.table());
  }
};

TEST(VictimTest, Example41MainCycleCandidates) {
  Fixture f;
  Result<std::vector<VictimCandidate>> candidates =
      EnumerateCandidates(f.graph, kMainCycle, f.lm.table(), f.costs,
                          f.options);
  ASSERT_TRUE(candidates.ok());
  // "there are four victim candidates from TDR-1 {T1, T2, T7, T3} and
  //  there is one victim candidate from TDR-2 {T8}".
  ASSERT_EQ(candidates->size(), 5u);
  std::vector<lock::TransactionId> abort_junctions;
  const VictimCandidate* repos = nullptr;
  for (const VictimCandidate& c : *candidates) {
    if (c.kind == VictimKind::kAbort) {
      abort_junctions.push_back(c.junction);
    } else {
      repos = &c;
    }
  }
  EXPECT_EQ(abort_junctions,
            (std::vector<lock::TransactionId>{1, 2, 7, 3}));
  ASSERT_NE(repos, nullptr);
  EXPECT_EQ(repos->junction, 3u);
  EXPECT_EQ(repos->resource, kR2);
  EXPECT_EQ(repos->st, (std::vector<lock::TransactionId>{8}));
  EXPECT_EQ(repos->av, (std::vector<lock::TransactionId>{9, 3}));
}

TEST(VictimTest, Tdr2CostIsHalfTheStSum) {
  Fixture f;
  f.costs.Set(8, 7.0);
  auto candidates = EnumerateCandidates(f.graph, kMainCycle, f.lm.table(),
                                        f.costs, f.options);
  ASSERT_TRUE(candidates.ok());
  const VictimCandidate& repos = candidates->back();
  ASSERT_EQ(repos.kind, VictimKind::kReposition);
  EXPECT_DOUBLE_EQ(repos.cost, 3.5);
}

TEST(VictimTest, UniformCostsPreferReposition) {
  Fixture f;
  auto candidates = EnumerateCandidates(f.graph, kMainCycle, f.lm.table(),
                                        f.costs, f.options);
  ASSERT_TRUE(candidates.ok());
  size_t chosen = SelectVictim(*candidates);
  EXPECT_EQ((*candidates)[chosen].kind, VictimKind::kReposition);
}

TEST(VictimTest, ExpensiveStMakesAbortWin) {
  Fixture f;
  f.costs.Set(8, 10.0);  // TDR-2 cost 5 > abort costs of 1
  auto candidates = EnumerateCandidates(f.graph, kMainCycle, f.lm.table(),
                                        f.costs, f.options);
  ASSERT_TRUE(candidates.ok());
  size_t chosen = SelectVictim(*candidates);
  EXPECT_EQ((*candidates)[chosen].kind, VictimKind::kAbort);
  // Tie among the four aborts: lowest junction id.
  EXPECT_EQ((*candidates)[chosen].junction, 1u);
}

TEST(VictimTest, CheapestTransactionWins) {
  Fixture f;
  f.costs.Set(1, 9.0);
  f.costs.Set(2, 8.0);
  f.costs.Set(7, 0.25);
  f.costs.Set(3, 5.0);
  f.costs.Set(8, 10.0);
  auto candidates = EnumerateCandidates(f.graph, kMainCycle, f.lm.table(),
                                        f.costs, f.options);
  ASSERT_TRUE(candidates.ok());
  size_t chosen = SelectVictim(*candidates);
  EXPECT_EQ((*candidates)[chosen].kind, VictimKind::kAbort);
  EXPECT_EQ((*candidates)[chosen].junction, 7u);
}

TEST(VictimTest, DisablingTdr2RemovesRepositionCandidates) {
  Fixture f;
  f.options.enable_tdr2 = false;
  auto candidates = EnumerateCandidates(f.graph, kMainCycle, f.lm.table(),
                                        f.costs, f.options);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 4u);
  for (const VictimCandidate& c : *candidates) {
    EXPECT_EQ(c.kind, VictimKind::kAbort);
  }
}

TEST(VictimTest, InnerCycleCandidates) {
  Fixture f;
  // The innermost cycle (T3,T6,T7,T8,T9): junctions T3 and T7; TDR-2 at
  // T3 again.
  auto candidates = EnumerateCandidates(f.graph, {3, 6, 7, 8, 9},
                                        f.lm.table(), f.costs, f.options);
  ASSERT_TRUE(candidates.ok());
  // Enumeration visits junction T3 (abort then its TDR-2) before T7.
  ASSERT_EQ(candidates->size(), 3u);
  EXPECT_EQ((*candidates)[0].junction, 3u);
  EXPECT_EQ((*candidates)[0].kind, VictimKind::kAbort);
  EXPECT_EQ((*candidates)[1].kind, VictimKind::kReposition);
  EXPECT_EQ((*candidates)[1].junction, 3u);
  EXPECT_EQ((*candidates)[1].st, (std::vector<lock::TransactionId>{8}));
  EXPECT_EQ((*candidates)[2].junction, 7u);
  EXPECT_EQ((*candidates)[2].kind, VictimKind::kAbort);
}

TEST(VictimTest, Tdr2InapplicableWhenJunctionConflictsWithTotalMode) {
  // Junction T7 queues on R1 with IX while tm(R1) = SIX: its incoming edge
  // is W-labeled but TDR-2 must not be offered.
  Fixture f;
  auto candidates = EnumerateCandidates(f.graph, kMainCycle, f.lm.table(),
                                        f.costs, f.options);
  ASSERT_TRUE(candidates.ok());
  for (const VictimCandidate& c : *candidates) {
    if (c.kind == VictimKind::kReposition) {
      EXPECT_NE(c.junction, 7u);
    }
  }
}

TEST(VictimTest, EnumerateRejectsNonCycle) {
  Fixture f;
  EXPECT_FALSE(
      EnumerateCandidates(f.graph, {1, 9, 4}, f.lm.table(), f.costs,
                          f.options)
          .ok());
}

TEST(VictimTest, CandidateToString) {
  VictimCandidate abort;
  abort.kind = VictimKind::kAbort;
  abort.junction = 3;
  abort.cost = 1.0;
  EXPECT_EQ(abort.ToString(), "abort T3 (cost 1.00)");
  VictimCandidate repos;
  repos.kind = VictimKind::kReposition;
  repos.junction = 3;
  repos.resource = 2;
  repos.cost = 0.5;
  repos.st = {8};
  EXPECT_EQ(repos.ToString(),
            "reposition {T8} on R2 at junction T3 (cost 0.50)");
}

TEST(CostTableTest, UnsetTidReadsOne) {
  CostTable costs;
  EXPECT_EQ(costs.Get(7), 1.0);
  EXPECT_EQ(costs.Find(7), nullptr);
  EXPECT_EQ(costs.size(), 0u);
}

TEST(CostTableTest, BumpOnUnsetTidStartsFromOne) {
  CostTable costs;
  costs.Bump(3, 2.0, 0.5);
  ASSERT_NE(costs.Find(3), nullptr);
  EXPECT_EQ(costs.Get(3), 2.5);
  costs.Bump(3, 2.0, 0.5);
  EXPECT_EQ(costs.Get(3), 5.5);
  EXPECT_EQ(costs.size(), 1u);
}

TEST(CostTableTest, EraseForgetsOnlyThatTid) {
  CostTable costs;
  costs.Set(1, 4.0);
  costs.Set(2, 5.0);
  costs.Set(3, 6.0);
  costs.Erase(1);  // not the last inserted: the flat map moves T3's entry
  EXPECT_EQ(costs.Find(1), nullptr);
  EXPECT_EQ(costs.Get(1), 1.0);
  EXPECT_EQ(costs.Get(2), 5.0);
  EXPECT_EQ(costs.Get(3), 6.0);
  EXPECT_EQ(costs.size(), 2u);
  costs.Erase(1);  // absent: no effect
  EXPECT_EQ(costs.size(), 2u);
  costs.Erase(2);
  costs.Erase(3);
  EXPECT_EQ(costs.size(), 0u);
  EXPECT_EQ(costs.Get(3), 1.0);
}

TEST(CostTableTest, CopyIsIndependentOfItsSource) {
  CostTable source;
  source.Set(1, 2.0);
  source.Set(2, 3.0);
  CostTable copy = source;
  EXPECT_TRUE(copy == source);
  copy.Set(1, 9.0);
  copy.Bump(4, 2.0, 0.0);
  source.Erase(2);
  EXPECT_EQ(source.Get(1), 2.0);
  EXPECT_EQ(source.Find(4), nullptr);
  EXPECT_EQ(copy.Get(1), 9.0);
  EXPECT_EQ(copy.Get(2), 3.0);
  EXPECT_EQ(copy.Get(4), 2.0);
  EXPECT_FALSE(copy == source);
}

TEST(CostTableTest, EqualityComparesTidsAndCostsInAnyOrder) {
  CostTable a, b;
  for (lock::TransactionId tid : {1u, 2u, 3u}) a.Set(tid, tid * 1.5);
  for (lock::TransactionId tid : {3u, 2u, 1u}) b.Set(tid, tid * 1.5);
  EXPECT_TRUE(a == b);
  b.Set(2, 0.5);
  EXPECT_FALSE(a == b);
  b.Set(2, 3.0);
  EXPECT_TRUE(a == b);
  b.Erase(3);
  EXPECT_FALSE(a == b);
  b.Set(4, 4.5);  // same size, different tid
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace twbg::core
