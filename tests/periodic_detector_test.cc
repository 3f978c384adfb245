// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// End-to-end tests of the periodic detection-resolution algorithm (§5):
// exact replays of the paper's Examples 4.1 and 5.1, policy ablations and
// randomized full-resolution properties.

#include "core/periodic_detector.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/examples_catalog.h"
#include "core/oracle.h"
#include "core/twbg.h"
#include "lock/lock_manager.h"
#include "obs/bus.h"
#include "obs/sinks.h"

namespace twbg::core {
namespace {

using enum lock::LockMode;

std::vector<lock::TransactionId> QueueIds(const lock::LockManager& lm,
                                          lock::ResourceId rid) {
  std::vector<lock::TransactionId> out;
  const lock::ResourceState* state = lm.table().Find(rid);
  if (state == nullptr) return out;
  for (const lock::QueueEntry& q : state->queue()) out.push_back(q.tid);
  return out;
}

TEST(PeriodicDetectorTest, Example51ReplaysThePaperExactly) {
  lock::LockManager lm;
  BuildExample51(lm);
  CostTable costs;
  costs.Set(1, 6.0);
  costs.Set(2, 4.0);
  costs.Set(3, 1.0);

  PeriodicDetector detector;
  ResolutionReport report = detector.RunPass(lm, costs);

  // The walk from T1 finds {T1,T2,T3} first (W edge precedes H edges),
  // picks T3 (cost 1); then finds {T1,T2} and picks T2 (cost 4).
  ASSERT_EQ(report.cycles_detected, 2u);
  ASSERT_EQ(report.decisions.size(), 2u);
  EXPECT_EQ(report.decisions[0].cycle,
            (std::vector<lock::TransactionId>{1, 2, 3}));
  EXPECT_EQ(report.decisions[0].victim().kind, VictimKind::kAbort);
  EXPECT_EQ(report.decisions[0].victim().junction, 3u);
  EXPECT_EQ(report.decisions[1].cycle,
            (std::vector<lock::TransactionId>{1, 2}));
  EXPECT_EQ(report.decisions[1].victim().junction, 2u);

  // Step 3 (reverse-insertion order): aborting T2 grants T3, which is then
  // spared — "the abortion-list is {T2}, the grant-list is {T3}".
  EXPECT_EQ(report.aborted, (std::vector<lock::TransactionId>{2}));
  EXPECT_EQ(report.spared, (std::vector<lock::TransactionId>{3}));
  EXPECT_EQ(report.granted, (std::vector<lock::TransactionId>{3}));

  // Final state (the paper's closing snapshot of Example 5.1).
  const lock::ResourceState* r1 = lm.table().Find(kR1);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->total_mode(), kS);
  EXPECT_EQ(r1->holders().size(), 2u);  // T1 and T3 share S
  EXPECT_TRUE(r1->queue().empty());
  const lock::ResourceState* r2 = lm.table().Find(kR2);
  ASSERT_NE(r2, nullptr);
  ASSERT_EQ(r2->holders().size(), 1u);
  EXPECT_EQ(r2->holders()[0].tid, 3u);
  EXPECT_EQ(QueueIds(lm, kR2), (std::vector<lock::TransactionId>{1}));

  EXPECT_FALSE(AnalyzeByReduction(lm.table()).deadlocked);
  EXPECT_TRUE(lm.CheckInvariants().ok());
}

TEST(PeriodicDetectorTest, Example41ResolvedWithoutAnyAbort) {
  lock::LockManager lm;
  BuildExample41(lm);
  CostTable costs;  // uniform costs: the TDR-2 candidate (0.5) wins

  PeriodicDetector detector;
  ResolutionReport report = detector.RunPass(lm, costs);

  // One detected cycle (the paper's four-TRRP cycle); the repositioning of
  // T8 resolves all four cycles preemptively.
  ASSERT_EQ(report.cycles_detected, 1u);
  EXPECT_EQ(report.decisions[0].cycle,
            (std::vector<lock::TransactionId>{1, 2, 5, 6, 7, 8, 9, 3}));
  const VictimCandidate& victim = report.decisions[0].victim();
  EXPECT_EQ(victim.kind, VictimKind::kReposition);
  EXPECT_EQ(victim.junction, 3u);
  EXPECT_EQ(victim.st, (std::vector<lock::TransactionId>{8}));
  EXPECT_TRUE(report.aborted.empty());
  EXPECT_EQ(report.repositioned, (std::vector<lock::ResourceId>{kR2}));
  // Step 3 reschedules R2: T9 is admitted, T3 stays (paper's Figure 4.2
  // narration: "the request of T9 is granted but that of T3 cannot be").
  EXPECT_EQ(report.granted, (std::vector<lock::TransactionId>{9}));
  EXPECT_EQ(QueueIds(lm, kR2), (std::vector<lock::TransactionId>{3, 8, 4}));
  const lock::ResourceState* r2 = lm.table().Find(kR2);
  EXPECT_EQ(r2->total_mode(), kIX);

  // ST members' costs were bumped (livelock avoidance).
  EXPECT_DOUBLE_EQ(costs.Get(8), 2.0);

  // Figure 4.2: no cycle remains.
  EXPECT_FALSE(HwTwbg::Build(lm.table()).HasCycle());
  EXPECT_FALSE(AnalyzeByReduction(lm.table()).deadlocked);
  EXPECT_TRUE(lm.CheckInvariants().ok());
}

TEST(PeriodicDetectorTest, Example41WithTdr2DisabledAborts) {
  lock::LockManager lm;
  BuildExample41(lm);
  CostTable costs;
  DetectorOptions options;
  options.enable_tdr2 = false;
  PeriodicDetector detector(options);
  ResolutionReport report = detector.RunPass(lm, costs);
  EXPECT_FALSE(report.aborted.empty());
  EXPECT_TRUE(report.repositioned.empty());
  EXPECT_FALSE(AnalyzeByReduction(lm.table()).deadlocked);
}

TEST(PeriodicDetectorTest, InsertionOrderAbortsBothVictims) {
  // Ablation of the Step 3 processing order: walking the abortion list in
  // insertion order examines T3 first, which forfeits the sparing the
  // paper's order achieves.
  lock::LockManager lm;
  BuildExample51(lm);
  CostTable costs;
  costs.Set(1, 6.0);
  costs.Set(2, 4.0);
  costs.Set(3, 1.0);
  DetectorOptions options;
  options.abort_order = AbortOrder::kInsertion;
  PeriodicDetector detector(options);
  ResolutionReport report = detector.RunPass(lm, costs);
  EXPECT_EQ(report.aborted, (std::vector<lock::TransactionId>{3, 2}));
  EXPECT_TRUE(report.spared.empty());
  EXPECT_EQ(report.granted, (std::vector<lock::TransactionId>{1}));
  EXPECT_FALSE(AnalyzeByReduction(lm.table()).deadlocked);
}

TEST(PeriodicDetectorTest, CleanTableProducesEmptyReport) {
  lock::LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 1, kX).ok());
  ASSERT_TRUE(lm.Acquire(2, 1, kS).ok());  // plain wait, no deadlock
  CostTable costs;
  PeriodicDetector detector;
  ResolutionReport report = detector.RunPass(lm, costs);
  EXPECT_EQ(report.cycles_detected, 0u);
  EXPECT_TRUE(report.aborted.empty());
  EXPECT_TRUE(report.granted.empty());
  EXPECT_TRUE(report.repositioned.empty());
  EXPECT_TRUE(lm.IsBlocked(2));  // untouched
}

TEST(PeriodicDetectorTest, ConversionDeadlockResolvedByAbort) {
  lock::LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 1, kIS).ok());
  ASSERT_TRUE(lm.Acquire(2, 1, kIS).ok());
  ASSERT_TRUE(lm.Acquire(1, 1, kX).ok());
  ASSERT_TRUE(lm.Acquire(2, 1, kX).ok());
  CostTable costs;
  costs.Set(1, 5.0);
  costs.Set(2, 2.0);
  PeriodicDetector detector;
  ResolutionReport report = detector.RunPass(lm, costs);
  ASSERT_EQ(report.cycles_detected, 1u);
  EXPECT_EQ(report.aborted, (std::vector<lock::TransactionId>{2}));
  EXPECT_EQ(report.granted, (std::vector<lock::TransactionId>{1}));
  EXPECT_EQ(lm.table().Find(1)->FindHolder(1)->granted, kX);
  EXPECT_FALSE(AnalyzeByReduction(lm.table()).deadlocked);
}

TEST(PeriodicDetectorTest, TwoIndependentDeadlocksResolvedInOnePass) {
  lock::LockManager lm;
  // Deadlock A on R1/R2, deadlock B on R3/R4.
  ASSERT_TRUE(lm.Acquire(1, 1, kX).ok());
  ASSERT_TRUE(lm.Acquire(2, 2, kX).ok());
  ASSERT_TRUE(lm.Acquire(1, 2, kX).ok());
  ASSERT_TRUE(lm.Acquire(2, 1, kX).ok());
  ASSERT_TRUE(lm.Acquire(3, 3, kX).ok());
  ASSERT_TRUE(lm.Acquire(4, 4, kX).ok());
  ASSERT_TRUE(lm.Acquire(3, 4, kX).ok());
  ASSERT_TRUE(lm.Acquire(4, 3, kX).ok());
  CostTable costs;
  PeriodicDetector detector;
  ResolutionReport report = detector.RunPass(lm, costs);
  EXPECT_EQ(report.cycles_detected, 2u);
  EXPECT_EQ(report.aborted.size(), 2u);
  EXPECT_FALSE(AnalyzeByReduction(lm.table()).deadlocked);
  EXPECT_TRUE(lm.CheckInvariants().ok());
}

TEST(PeriodicDetectorTest, SecondPassIsANoop) {
  lock::LockManager lm;
  BuildExample41(lm);
  CostTable costs;
  PeriodicDetector detector;
  detector.RunPass(lm, costs);
  ResolutionReport second = detector.RunPass(lm, costs);
  EXPECT_EQ(second.cycles_detected, 0u);
  EXPECT_TRUE(second.aborted.empty());
  EXPECT_TRUE(second.repositioned.empty());
}

// Pointing a detector at another bus between passes moves the later
// passes' events there and leaves the earlier bus alone.
TEST(PeriodicDetectorTest, SetObserversMovesLaterPassesToTheNewBus) {
  lock::LockManager lm;
  BuildExample41(lm);
  CostTable costs;
  obs::EventBus first_bus;
  obs::EventBus second_bus;
  obs::CollectorSink first;
  obs::CollectorSink second;
  first_bus.Subscribe(&first);
  second_bus.Subscribe(&second);
  DetectorOptions options;
  options.event_bus = &first_bus;
  PeriodicDetector detector(options);
  detector.RunPass(lm, costs);
  EXPECT_EQ(first.Count(obs::EventKind::kPassStart), 1u);
  detector.set_observers(&second_bus, nullptr);
  EXPECT_EQ(detector.options().event_bus, &second_bus);
  EXPECT_EQ(detector.RunPass(lm, costs).cycles_detected, 0u);
  EXPECT_EQ(first.Count(obs::EventKind::kPassStart), 1u);
  EXPECT_EQ(second.Count(obs::EventKind::kPassStart), 1u);
}

TEST(PeriodicDetectorTest, ReportStatsAndToString) {
  lock::LockManager lm;
  BuildExample51(lm);
  CostTable costs;
  PeriodicDetector detector;
  ResolutionReport report = detector.RunPass(lm, costs);
  EXPECT_EQ(report.num_transactions, 3u);
  EXPECT_EQ(report.num_edges, 6u);  // 4 real edges + 2 sentinels
  EXPECT_GT(report.steps, 0u);
  EXPECT_TRUE(report.found_deadlock());
  std::string s = report.ToString();
  EXPECT_NE(s.find("cycles=2"), std::string::npos);
  EXPECT_NE(s.find("abortion-list"), std::string::npos);
}

// Property: a single pass resolves every deadlock, never "resolves" a
// non-deadlock, and leaves a consistent lock manager — across thousands of
// random tables and all abort-order policies.
class PeriodicDetectorPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, AbortOrder>> {};

TEST_P(PeriodicDetectorPropertyTest, OnePassFullyResolves) {
  auto [seed, order] = GetParam();
  common::Rng rng(seed);
  for (int round = 0; round < 60; ++round) {
    lock::LockManager lm;
    const int txns = 2 + static_cast<int>(rng.NextBelow(12));
    const int resources = 1 + static_cast<int>(rng.NextBelow(5));
    const int ops = 10 + static_cast<int>(rng.NextBelow(120));
    for (int op = 0; op < ops; ++op) {
      lock::TransactionId tid =
          static_cast<lock::TransactionId>(rng.NextInRange(1, txns));
      lock::ResourceId rid =
          static_cast<lock::ResourceId>(rng.NextInRange(1, resources));
      (void)lm.Acquire(tid, rid, lock::kRealModes[rng.NextBelow(5)]);
    }
    CostTable costs;
    for (int t = 1; t <= txns; ++t) {
      costs.Set(static_cast<lock::TransactionId>(t),
                1.0 + static_cast<double>(rng.NextBelow(10)));
    }
    const bool was_deadlocked = AnalyzeByReduction(lm.table()).deadlocked;
    DetectorOptions options;
    options.abort_order = order;
    PeriodicDetector detector(options);
    ResolutionReport report = detector.RunPass(lm, costs);

    ASSERT_EQ(report.found_deadlock(), was_deadlocked)
        << "seed=" << seed << " round=" << round;
    ASSERT_FALSE(AnalyzeByReduction(lm.table()).deadlocked)
        << "seed=" << seed << " round=" << round << "\n"
        << lm.table().ToString();
    ASSERT_FALSE(HwTwbg::Build(lm.table()).HasCycle());
    Status invariants = lm.CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << invariants.ToString();
    // Nothing both aborted and granted; spared víctims are granted.
    for (lock::TransactionId tid : report.aborted) {
      EXPECT_EQ(std::count(report.granted.begin(), report.granted.end(), tid),
                0);
    }
    for (lock::TransactionId tid : report.spared) {
      EXPECT_EQ(std::count(report.granted.begin(), report.granted.end(), tid),
                1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndOrders, PeriodicDetectorPropertyTest,
    ::testing::Combine(::testing::Values(7, 17, 27, 37, 47),
                       ::testing::Values(AbortOrder::kReverseInsertion,
                                         AbortOrder::kInsertion,
                                         AbortOrder::kCostDescending,
                                         AbortOrder::kCostAscending)));

}  // namespace
}  // namespace twbg::core
