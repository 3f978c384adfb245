// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Differential tests for the incremental GraphBuilder edge cache: against
// over a thousand randomized schedules and every checked-in scenario
// script, the incrementally refreshed TST / H/W-TWBG must be
// byte-identical to a from-scratch build, and a periodic detector running
// on the cache must make exactly the decisions of one that rebuilds every
// pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/continuous_detector.h"
#include "core/graph_builder.h"
#include "core/periodic_detector.h"
#include "core/script.h"
#include "core/tst.h"
#include "core/tst_builder.h"
#include "core/twbg.h"
#include "lock/lock_manager.h"
#include "obs/bus.h"
#include "obs/sinks.h"

#ifndef TWBG_SCENARIO_DIR
#error "TWBG_SCENARIO_DIR must be defined by the build"
#endif

namespace twbg::core {
namespace {

using lock::LockManager;
using lock::LockMode;

// One random lock-manager op.  Pre-generating the schedule lets two
// managers replay it in lockstep.
struct Op {
  lock::TransactionId tid = 0;
  lock::ResourceId rid = 0;
  LockMode mode = LockMode::kNL;
  bool release = false;
};

std::vector<Op> MakeSchedule(common::Rng& rng, int txns, int resources,
                             int ops) {
  std::vector<Op> schedule;
  schedule.reserve(ops);
  for (int i = 0; i < ops; ++i) {
    Op op;
    op.tid = static_cast<lock::TransactionId>(rng.NextInRange(1, txns));
    if (rng.NextBernoulli(0.1)) {
      op.release = true;
    } else {
      op.rid = static_cast<lock::ResourceId>(rng.NextInRange(1, resources));
      op.mode = lock::kRealModes[rng.NextBelow(5)];
    }
    schedule.push_back(op);
  }
  return schedule;
}

void Apply(LockManager& lm, const Op& op) {
  if (op.release) {
    lm.ReleaseAll(op.tid);
  } else {
    (void)lm.Acquire(op.tid, op.rid, op.mode);
  }
}

// The incremental report carries a "graph-cache:" line the scratch one
// lacks; everything else must match byte-for-byte.
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

class IncrementalBuildTest : public ::testing::TestWithParam<uint64_t> {};

// Byte-identical structures: after every mutation, a long-lived
// TstBuilder and GraphBuilder refreshed in place must reproduce Tst::Build
// and HwTwbg::Build exactly.  6 seeds x 200 rounds = 1200 schedules; the
// builders survive across rounds, so every round also exercises the
// table-switch (full-sweep) path before settling into the journal path.
TEST_P(IncrementalBuildTest, RefreshMatchesScratchOnRandomSchedules) {
  common::Rng rng(GetParam());
  TstBuilder builder;
  GraphBuilder graph_builder;
  for (int round = 0; round < 200; ++round) {
    LockManager lm;
    std::vector<Op> schedule = MakeSchedule(rng, 8, 4, 40);
    for (size_t i = 0; i < schedule.size(); ++i) {
      Apply(lm, schedule[i]);
      if (i % 3 != 0 && i + 1 != schedule.size()) continue;
      ASSERT_EQ(builder.RefreshTst(lm.table()).ToString(),
                Tst::Build(lm.table()).ToString())
          << "seed " << GetParam() << " round " << round << " op " << i;
      // After the refresh the cache is clean; the graph snapshot must
      // still equal a scratch build.
      ASSERT_EQ(graph_builder.BuildGraph(lm.table()).ToString(),
                HwTwbg::Build(lm.table()).ToString());
      size_t table_resources = 0;
      for (const auto& [rid, state] : lm.table()) {
        (void)rid;
        (void)state;
        ++table_resources;
      }
      ASSERT_EQ(builder.stats().num_dirty_resources +
                    builder.stats().num_cached_resources,
                table_resources);
    }
  }
}

// Walk parity: two managers replay identical schedules; a periodic
// detector with the cache and one without must produce byte-identical
// resolution reports (cycles, decisions, victims, grants) and leave both
// managers in agreeing states.
TEST_P(IncrementalBuildTest, PeriodicDetectorParityOnRandomSchedules) {
  common::Rng rng(GetParam() ^ 0xfeed);
  // Only the incremental side is observed: post-mortem collection must
  // neither perturb its decisions nor leak into the compared reports, and
  // every resolved cycle must emit exactly one kCyclePostMortem.
  obs::EventBus bus;
  obs::CollectorSink sink;
  bus.Subscribe(&sink);
  size_t total_cycles = 0;
  for (int round = 0; round < 60; ++round) {
    LockManager inc_lm, scr_lm;
    CostTable inc_costs, scr_costs;
    DetectorOptions inc_opts, scr_opts;
    inc_opts.incremental_build = true;
    inc_opts.event_bus = &bus;
    scr_opts.incremental_build = false;
    PeriodicDetector inc(inc_opts), scr(scr_opts);
    std::vector<Op> schedule = MakeSchedule(rng, 8, 4, 60);
    for (size_t i = 0; i < schedule.size(); ++i) {
      Apply(inc_lm, schedule[i]);
      Apply(scr_lm, schedule[i]);
      if (i % 20 != 0 && i + 1 != schedule.size()) continue;
      ResolutionReport inc_report = inc.RunPass(inc_lm, inc_costs);
      ResolutionReport scr_report = scr.RunPass(scr_lm, scr_costs);
      ASSERT_EQ(StripCacheLines(inc_report.ToString()),
                StripCacheLines(scr_report.ToString()))
          << "seed " << GetParam() << " round " << round << " op " << i;
      ASSERT_EQ(Tst::Build(inc_lm.table()).ToString(),
                Tst::Build(scr_lm.table()).ToString());
      ASSERT_EQ(inc_report.post_mortems.size(), inc_report.cycles_detected);
      ASSERT_TRUE(scr_report.post_mortems.empty());  // no bus, no opt-in
      total_cycles += inc_report.cycles_detected;
    }
  }
  EXPECT_EQ(sink.Count(obs::EventKind::kCyclePostMortem), total_cycles);
}

// Same parity for the continuous detector's non-scoped incremental path.
TEST_P(IncrementalBuildTest, ContinuousDetectorParityOnRandomSchedules) {
  common::Rng rng(GetParam() ^ 0xc0ffee);
  for (int round = 0; round < 30; ++round) {
    LockManager inc_lm, scr_lm;
    CostTable inc_costs, scr_costs;
    DetectorOptions inc_opts, scr_opts;
    inc_opts.incremental_build = true;
    inc_opts.scoped_continuous_build = false;
    scr_opts.incremental_build = false;
    scr_opts.scoped_continuous_build = false;
    ContinuousDetector inc(inc_opts), scr(scr_opts);
    std::vector<Op> schedule = MakeSchedule(rng, 8, 4, 60);
    for (const Op& op : schedule) {
      if (op.release) {
        inc_lm.ReleaseAll(op.tid);
        scr_lm.ReleaseAll(op.tid);
        continue;
      }
      Result<lock::RequestOutcome> inc_out =
          inc_lm.Acquire(op.tid, op.rid, op.mode);
      Result<lock::RequestOutcome> scr_out =
          scr_lm.Acquire(op.tid, op.rid, op.mode);
      ASSERT_EQ(inc_out.ok(), scr_out.ok());
      if (!inc_out.ok() || *inc_out != lock::RequestOutcome::kBlocked) {
        continue;
      }
      ASSERT_EQ(*inc_out, *scr_out);
      ResolutionReport inc_report = inc.OnBlock(inc_lm, inc_costs, op.tid);
      ResolutionReport scr_report = scr.OnBlock(scr_lm, scr_costs, op.tid);
      ASSERT_EQ(StripCacheLines(inc_report.ToString()),
                StripCacheLines(scr_report.ToString()))
          << "seed " << GetParam() << " round " << round;
      ASSERT_EQ(Tst::Build(inc_lm.table()).ToString(),
                Tst::Build(scr_lm.table()).ToString());
    }
  }
}

// The builders' caches, the edge-list index and the persistent TST
// included, are plain values: a copy refreshes on the journal exactly like
// its source, and so does every builder the vectors' reallocations move.
TEST(GraphBuilderTest, CopiesAndMovesKeepRefreshingOnTheJournal) {
  common::Rng rng(99);
  LockManager lm;
  std::vector<TstBuilder> builders(1);
  std::vector<GraphBuilder> graph_builders(1);
  const std::vector<Op> schedule = MakeSchedule(rng, 8, 6, 200);
  for (size_t i = 0; i < schedule.size(); ++i) {
    Apply(lm, schedule[i]);
    if (i % 10 != 0) continue;
    const std::string tst = Tst::Build(lm.table()).ToString();
    const std::string graph = HwTwbg::Build(lm.table()).ToString();
    for (TstBuilder& builder : builders) {
      ASSERT_EQ(builder.RefreshTst(lm.table()).ToString(), tst) << "op " << i;
      ASSERT_EQ(builder.stats().full_sweep, i == 0);
    }
    for (GraphBuilder& builder : graph_builders) {
      ASSERT_EQ(builder.BuildGraph(lm.table()).ToString(), graph);
      ASSERT_EQ(builder.stats().full_sweep, i == 0);
    }
    builders.push_back(builders.back());
    graph_builders.push_back(graph_builders.back());
  }
  EXPECT_EQ(builders.size(), 21u);
}

// A resource dropped from the cache frees its slot, and the next resource
// the cache takes in reuses it.  It must rebuild from no participants and
// no edges: with the previous occupant's list left in place, the
// positional diff would see the same transactions before and after,
// retain none of them and leave the vertex set short.
TEST(GraphBuilderTest, ReusedCacheSlotRebuildsFromEmptyParticipants) {
  LockManager lm;
  GraphBuilder builder;
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(2, 10, LockMode::kX).ok());  // T2 waits on R10
  builder.Refresh(lm.table());
  ASSERT_FALSE(builder.edge_lists().empty());
  lm.ReleaseAll(2);
  lm.ReleaseAll(1);  // R10 leaves the table, and then the cache
  builder.Refresh(lm.table());
  ASSERT_FALSE(builder.stats().full_sweep);
  EXPECT_TRUE(builder.edge_lists().empty());
  EXPECT_EQ(builder.left().size(), 2u);

  // The same participants in the same order, on a new resource.
  ASSERT_TRUE(lm.Acquire(1, 20, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(2, 20, LockMode::kX).ok());
  builder.Refresh(lm.table());
  ASSERT_FALSE(builder.stats().full_sweep);
  std::vector<lock::TransactionId> joined = builder.joined();
  std::sort(joined.begin(), joined.end());
  EXPECT_EQ(joined, (std::vector<lock::TransactionId>{1, 2}));
  ASSERT_EQ(builder.changes().size(), 1u);
  EXPECT_EQ(builder.changes()[0].rid, 20u);
  EXPECT_EQ(builder.changes()[0].old_begin, builder.changes()[0].old_end);
  EXPECT_EQ(builder.BuildGraph(lm.table()).ToString(),
            HwTwbg::Build(lm.table()).ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalBuildTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// Every checked-in scenario script must behave identically (including all
// of its own expect* assertions) under the cached and from-scratch
// builders, down to the printed output.
TEST(IncrementalScenarioTest, ScriptsAgreeWithScratchBuild) {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(TWBG_SCENARIO_DIR)) {
    if (entry.path().extension() != ".twbg") continue;
    ++count;
    std::ifstream file(entry.path());
    ASSERT_TRUE(file.good()) << entry.path();
    std::stringstream buffer;
    buffer << file.rdbuf();

    ScriptOptions inc_opts, scr_opts;
    inc_opts.detector.incremental_build = true;
    scr_opts.detector.incremental_build = false;
    ScriptRunner inc(inc_opts), scr(scr_opts);
    std::string inc_out, scr_out;
    Status inc_status = inc.ExecuteScript(buffer.str(), &inc_out);
    Status scr_status = scr.ExecuteScript(buffer.str(), &scr_out);
    EXPECT_TRUE(inc_status.ok())
        << entry.path() << ": " << inc_status.ToString();
    EXPECT_TRUE(scr_status.ok())
        << entry.path() << ": " << scr_status.ToString();
    EXPECT_EQ(StripCacheLines(inc_out), StripCacheLines(scr_out))
        << entry.path();
    EXPECT_EQ(Tst::Build(inc.manager().table()).ToString(),
              Tst::Build(scr.manager().table()).ToString())
        << entry.path();
  }
  EXPECT_GE(count, 4u);
}

}  // namespace
}  // namespace twbg::core
