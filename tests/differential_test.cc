// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Differential tests between the periodic and continuous detectors: on
// identical states both must leave the system deadlock-free with
// consistent bookkeeping (their victim choices may differ — the
// continuous detector sees cycles one block at a time).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/continuous_detector.h"
#include "core/oracle.h"
#include "core/periodic_detector.h"
#include "core/twbg.h"
#include "lock/lock_manager.h"
#include "obs/bus.h"
#include "obs/sinks.h"

namespace twbg::core {
namespace {

TEST(DifferentialTest, BothDetectorsFullyResolveRandomStates) {
  common::Rng rng(13371337);
  // The periodic side runs observed: every resolved cycle must produce
  // exactly one kCyclePostMortem, and observing must not perturb the
  // byte-for-byte agreement below.
  obs::EventBus bus;
  obs::CollectorSink sink;
  bus.Subscribe(&sink);
  size_t total_cycles = 0;
  for (int round = 0; round < 120; ++round) {
    // Build the same random state twice.
    lock::LockManager periodic_lm;
    lock::LockManager continuous_lm;
    const int txns = 2 + static_cast<int>(rng.NextBelow(10));
    const int ops = 20 + static_cast<int>(rng.NextBelow(90));
    for (int op = 0; op < ops; ++op) {
      lock::TransactionId tid =
          static_cast<lock::TransactionId>(rng.NextInRange(1, txns));
      lock::ResourceId rid =
          static_cast<lock::ResourceId>(rng.NextInRange(1, 4));
      lock::LockMode mode = lock::kRealModes[rng.NextBelow(5)];
      (void)periodic_lm.Acquire(tid, rid, mode);
      (void)continuous_lm.Acquire(tid, rid, mode);
    }
    const bool deadlocked =
        AnalyzeByReduction(periodic_lm.table()).deadlocked;

    CostTable periodic_costs;
    DetectorOptions periodic_options;
    periodic_options.event_bus = &bus;
    PeriodicDetector periodic(periodic_options);
    ResolutionReport periodic_report =
        periodic.RunPass(periodic_lm, periodic_costs);
    ASSERT_EQ(periodic_report.post_mortems.size(),
              periodic_report.cycles_detected)
        << "round " << round;
    total_cycles += periodic_report.cycles_detected;

    CostTable continuous_costs;
    ContinuousDetector continuous;
    size_t continuous_cycles = 0;
    // OnBlock mutates the manager: iterate a copy of the blocked set.
    const std::vector<lock::TransactionId> blocked =
        continuous_lm.BlockedTransactions();
    for (lock::TransactionId tid : blocked) {
      ResolutionReport r =
          continuous.OnBlock(continuous_lm, continuous_costs, tid);
      continuous_cycles += r.cycles_detected;
    }

    // Agreement on existence...
    ASSERT_EQ(periodic_report.found_deadlock(), deadlocked);
    ASSERT_EQ(continuous_cycles > 0, deadlocked) << "round " << round;
    // ...and on the postcondition.
    ASSERT_FALSE(AnalyzeByReduction(periodic_lm.table()).deadlocked);
    ASSERT_FALSE(AnalyzeByReduction(continuous_lm.table()).deadlocked);
    ASSERT_FALSE(HwTwbg::Build(continuous_lm.table()).HasCycle());
    ASSERT_TRUE(periodic_lm.CheckInvariants().ok());
    ASSERT_TRUE(continuous_lm.CheckInvariants().ok());
  }
  // One post-mortem per resolved cycle across the whole suite.
  EXPECT_GT(total_cycles, 0u);
  EXPECT_EQ(sink.Count(obs::EventKind::kCyclePostMortem), total_cycles);
  EXPECT_EQ(sink.Count(obs::EventKind::kCycleResolved), total_cycles);
}

TEST(DifferentialTest, ContinuousAfterPeriodicFindsNothing) {
  common::Rng rng(909090);
  for (int round = 0; round < 80; ++round) {
    lock::LockManager lm;
    for (int op = 0; op < 80; ++op) {
      (void)lm.Acquire(
          static_cast<lock::TransactionId>(rng.NextInRange(1, 9)),
          static_cast<lock::ResourceId>(rng.NextInRange(1, 4)),
          lock::kRealModes[rng.NextBelow(5)]);
    }
    CostTable costs;
    PeriodicDetector periodic;
    periodic.RunPass(lm, costs);
    ContinuousDetector continuous;
    const std::vector<lock::TransactionId> blocked = lm.BlockedTransactions();
    for (lock::TransactionId tid : blocked) {
      ResolutionReport r = continuous.OnBlock(lm, costs, tid);
      ASSERT_EQ(r.cycles_detected, 0u);
      ASSERT_TRUE(r.aborted.empty());
    }
  }
}

}  // namespace
}  // namespace twbg::core
