// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Differential tests between the sequential periodic detector and the
// component-parallel one (core/parallel_detector.h): over 1200+
// randomized schedules (uniform and zipf-skewed) and every checked-in
// scenario script, the parallel pass must produce byte-identical
// resolution reports, identical post states, and — when observed — an
// identical event stream (timing values aside), whether it runs on a
// worker pool or degenerates to the serial code path.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/oracle.h"
#include "core/parallel_detector.h"
#include "core/periodic_detector.h"
#include "core/script.h"
#include "core/tst.h"
#include "core/tst_builder.h"
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

// One random lock-manager op, replayed in lockstep by both managers.
struct Op {
  lock::TransactionId tid = 0;
  lock::ResourceId rid = 0;
  LockMode mode = LockMode::kNL;
  bool release = false;
};

std::vector<Op> MakeSchedule(common::Rng& rng, int txns, int resources,
                             int ops, bool zipf) {
  std::vector<Op> schedule;
  schedule.reserve(ops);
  for (int i = 0; i < ops; ++i) {
    Op op;
    op.tid = static_cast<lock::TransactionId>(rng.NextInRange(1, txns));
    if (rng.NextBernoulli(0.1)) {
      op.release = true;
    } else {
      if (zipf) {
        // Squaring a uniform sample skews mass toward low rids — a cheap
        // zipf-like hot set, with the tail still producing the sparse
        // resources that give the TST several weak components.
        const double u = rng.NextDouble();
        op.rid = static_cast<lock::ResourceId>(
            1 + static_cast<int>(u * u * resources));
      } else {
        op.rid = static_cast<lock::ResourceId>(rng.NextInRange(1, resources));
      }
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

// Event comparison: everything except the stopwatch-driven `value` of the
// pass-timing kinds must match (seq/time are re-stamped identically by
// construction; spans are manager-wide in both runs).
bool IsTimingKind(obs::EventKind kind) {
  return kind == obs::EventKind::kStep1 || kind == obs::EventKind::kStep2 ||
         kind == obs::EventKind::kPassEnd;
}

void ExpectSameStream(const std::deque<obs::Event>& seq_events,
                      const std::deque<obs::Event>& par_events,
                      const std::string& context) {
  ASSERT_EQ(seq_events.size(), par_events.size()) << context;
  for (size_t i = 0; i < seq_events.size(); ++i) {
    const obs::Event& s = seq_events[i];
    const obs::Event& p = par_events[i];
    ASSERT_EQ(s.kind, p.kind) << context << " event " << i;
    EXPECT_EQ(s.seq, p.seq) << context << " event " << i;
    EXPECT_EQ(s.time, p.time) << context << " event " << i;
    EXPECT_EQ(s.tid, p.tid) << context << " event " << i;
    EXPECT_EQ(s.rid, p.rid) << context << " event " << i;
    EXPECT_EQ(s.mode, p.mode) << context << " event " << i;
    EXPECT_EQ(s.a, p.a) << context << " event " << i;
    EXPECT_EQ(s.b, p.b) << context << " event " << i;
    EXPECT_EQ(s.span, p.span) << context << " event " << i;
    EXPECT_EQ(s.detail, p.detail) << context << " event " << i;
    if (!IsTimingKind(s.kind)) {
      EXPECT_EQ(s.value, p.value) << context << " event " << i;
    }
  }
}

class ParallelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Report parity on random schedules.  The detectors live across rounds,
// so both incremental caches also exercise the table-switch (full-sweep)
// path and the warm journal path.  6 seeds x 100 rounds x up to 4 passes
// each = well over 600 distinct states.
TEST_P(ParallelDifferentialTest, ReportParityOnRandomSchedules) {
  common::Rng rng(GetParam());
  common::ThreadPool pool(3);
  DetectorOptions options;
  PeriodicDetector seq(options);
  ParallelPeriodicDetector par(options, &pool);
  size_t total_cycles = 0;
  size_t multi_component_passes = 0;
  for (int round = 0; round < 100; ++round) {
    LockManager seq_lm, par_lm;
    CostTable seq_costs, par_costs;
    const int txns = 2 + static_cast<int>(rng.NextBelow(13));
    std::vector<Op> schedule = MakeSchedule(rng, txns, 10, 70, false);
    for (size_t i = 0; i < schedule.size(); ++i) {
      Apply(seq_lm, schedule[i]);
      Apply(par_lm, schedule[i]);
      if (i % 20 != 0 && i + 1 != schedule.size()) continue;
      ResolutionReport seq_report = seq.RunPass(seq_lm, seq_costs);
      ResolutionReport par_report = par.RunPass(par_lm, par_costs);
      ASSERT_EQ(seq_report.ToString(), par_report.ToString())
          << "seed " << GetParam() << " round " << round << " op " << i;
      ASSERT_EQ(Tst::Build(seq_lm.table()).ToString(),
                Tst::Build(par_lm.table()).ToString());
      total_cycles += par_report.cycles_detected;
      if (par.last_num_components() > 1) ++multi_component_passes;
    }
    // Identical post states, both deadlock-free and consistent.
    ASSERT_FALSE(AnalyzeByReduction(par_lm.table()).deadlocked);
    ASSERT_TRUE(seq_lm.CheckInvariants().ok());
    ASSERT_TRUE(par_lm.CheckInvariants().ok());
    // Costs must have received identical TDR-2 bumps: the same tids with
    // the same costs, in whatever order each table stores them.
    ASSERT_TRUE(seq_costs == par_costs);
  }
  EXPECT_GT(total_cycles, 0u);
  // The schedules must actually exercise the parallel partition.
  EXPECT_GT(multi_component_passes, 0u);
}

// Observed parity: with a bus on both sides, the parallel pass must
// replay its per-component event recordings into the exact sequential
// stream — same kinds, payloads, spans, details and sequence numbers.
TEST_P(ParallelDifferentialTest, EventStreamParityWhenObserved) {
  common::Rng rng(GetParam() ^ 0xabcdef);
  common::ThreadPool pool(3);
  for (int round = 0; round < 100; ++round) {
    obs::EventBus seq_bus, par_bus;
    obs::CollectorSink seq_sink, par_sink;
    seq_bus.Subscribe(&seq_sink);
    par_bus.Subscribe(&par_sink);
    DetectorOptions seq_options, par_options;
    seq_options.event_bus = &seq_bus;
    par_options.event_bus = &par_bus;
    PeriodicDetector seq(seq_options);
    ParallelPeriodicDetector par(par_options, &pool);
    LockManager seq_lm, par_lm;
    seq_lm.set_event_bus(&seq_bus);
    par_lm.set_event_bus(&par_bus);
    CostTable seq_costs, par_costs;
    const int txns = 2 + static_cast<int>(rng.NextBelow(11));
    std::vector<Op> schedule = MakeSchedule(rng, txns, 8, 60, false);
    for (size_t i = 0; i < schedule.size(); ++i) {
      Apply(seq_lm, schedule[i]);
      Apply(par_lm, schedule[i]);
    }
    ResolutionReport seq_report = seq.RunPass(seq_lm, seq_costs);
    ResolutionReport par_report = par.RunPass(par_lm, par_costs);
    ASSERT_EQ(seq_report.ToString(), par_report.ToString())
        << "seed " << GetParam() << " round " << round;
    // One post-mortem per resolved cycle on both sides (bus is active).
    ASSERT_EQ(par_report.post_mortems.size(), par_report.cycles_detected);
    std::ostringstream context;
    context << "seed " << GetParam() << " round " << round;
    ExpectSameStream(seq_sink.events(), par_sink.events(), context.str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferentialTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// Zipf-skewed schedules: a hot resource set plus a sparse tail produce
// the many-small-components shape the sharded service sees in practice.
// 300 more schedules, pool and serial (null-pool) parallel paths agreeing
// with the sequential detector and with each other.
TEST(ParallelDifferentialZipfTest, SkewedSchedulesAgreeOnAllPaths) {
  common::Rng rng(777777);
  common::ThreadPool pool(3);
  DetectorOptions options;
  PeriodicDetector seq(options);
  ParallelPeriodicDetector pooled(options, &pool);
  ParallelPeriodicDetector serial(options, nullptr);
  size_t total_cycles = 0;
  for (int round = 0; round < 300; ++round) {
    LockManager seq_lm, pool_lm, serial_lm;
    CostTable seq_costs, pool_costs, serial_costs;
    const int txns = 2 + static_cast<int>(rng.NextBelow(15));
    std::vector<Op> schedule = MakeSchedule(rng, txns, 12, 60, true);
    for (const Op& op : schedule) {
      Apply(seq_lm, op);
      Apply(pool_lm, op);
      Apply(serial_lm, op);
    }
    ResolutionReport seq_report = seq.RunPass(seq_lm, seq_costs);
    ResolutionReport pool_report = pooled.RunPass(pool_lm, pool_costs);
    ResolutionReport serial_report = serial.RunPass(serial_lm, serial_costs);
    ASSERT_EQ(seq_report.ToString(), pool_report.ToString())
        << "round " << round;
    ASSERT_EQ(seq_report.ToString(), serial_report.ToString())
        << "round " << round;
    ASSERT_EQ(Tst::Build(seq_lm.table()).ToString(),
              Tst::Build(pool_lm.table()).ToString());
    ASSERT_TRUE(pool_lm.CheckInvariants().ok());
    total_cycles += pool_report.cycles_detected;
  }
  EXPECT_GT(total_cycles, 0u);
}

// Multi-table Step 1 parity: one random schedule, routed by rid into k
// shard tables and mirrored whole into a reference table, must give a
// TstBuilder TST byte-identical to a single-table build of the
// reference after every few ops.  Each builder lives across rounds (a
// round's fresh tables are a table switch: full sweep), refreshes on the
// journal within a round, and mid-round is handed copies of its tables
// (fresh uids: the full-sweep fallback) and then the originals again.
TEST(ShardedTstBuilderTest, MultiTableRefreshMatchesSingleTableBuild) {
  common::Rng rng(4242);
  common::ThreadPool pool(3);
  size_t journal_refreshes = 0;
  size_t copy_rounds = 0;
  for (const size_t num_shards : {size_t{2}, size_t{4}, size_t{8}}) {
    TstBuilder builder;
    for (int round = 0; round < 40; ++round) {
      LockManager reference;
      std::vector<LockManager> shards(num_shards);
      std::vector<const lock::LockTable*> tables;
      for (const LockManager& shard : shards) tables.push_back(&shard.table());
      const int txns = 2 + static_cast<int>(rng.NextBelow(13));
      const std::vector<Op> schedule =
          MakeSchedule(rng, txns, 24, 80, /*zipf=*/round % 2 == 0);
      for (size_t i = 0; i < schedule.size(); ++i) {
        const Op& op = schedule[i];
        if (op.release) {
          reference.ReleaseAll(op.tid);
          for (LockManager& shard : shards) shard.ReleaseAll(op.tid);
        } else if (Result<lock::RequestOutcome> outcome =
                       reference.Acquire(op.tid, op.rid, op.mode);
                   outcome.ok()) {
          // Only requests the whole table admits: a shard cannot see that
          // the transaction is blocked on another shard.
          Result<lock::RequestOutcome> shard_outcome =
              shards[op.rid % num_shards].Acquire(op.tid, op.rid, op.mode);
          ASSERT_TRUE(shard_outcome.ok());
          ASSERT_EQ(*shard_outcome, *outcome);
        }
        if (i % 4 != 0 && i + 1 != schedule.size()) continue;
        const std::string expected = Tst::Build(reference.table()).ToString();
        ASSERT_EQ(builder.RefreshTst(tables, &pool).ToString(), expected)
            << num_shards << " shards, round " << round << " op " << i;
        if (!builder.stats().full_sweep) ++journal_refreshes;
        if (round % 8 == 3 && i == schedule.size() / 2) {
          ++copy_rounds;
          std::vector<lock::LockTable> copies;
          copies.reserve(num_shards);
          std::vector<const lock::LockTable*> copy_tables;
          for (const lock::LockTable* table : tables) {
            copies.push_back(*table);
            copy_tables.push_back(&copies.back());
          }
          ASSERT_EQ(builder.RefreshTst(copy_tables, nullptr).ToString(),
                    expected);
          ASSERT_TRUE(builder.stats().full_sweep);
          ASSERT_EQ(builder.RefreshTst(tables, nullptr).ToString(), expected);
          ASSERT_TRUE(builder.stats().full_sweep);
        }
      }
    }
  }
  EXPECT_GT(journal_refreshes, 0u);
  EXPECT_EQ(copy_rounds, 15u);
}

// ParallelWalkHost over two shard managers with disjoint rids.
class TwoShardWalkHost final : public ParallelWalkHost {
 public:
  TwoShardWalkHost(LockManager& a, LockManager& b) : a_(a), b_(b) {}

  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    const lock::ResourceState* state = a_.table().Find(rid);
    return state != nullptr ? state : b_.table().Find(rid);
  }
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    return a_.Info(tid);
  }
  Status ApplyTdr2Direct(lock::ResourceId rid,
                         lock::TransactionId junction) override {
    lock::ResourceState* state =
        Owner(rid).mutable_table().FindMutableDeferred(rid);
    return state == nullptr ? Status::NotFound("not locked")
                            : state->ApplyTdr2(junction);
  }
  void NoteTdr2Applied(lock::ResourceId rid) override {
    Owner(rid).mutable_table().NoteMutation(rid);
  }

 private:
  LockManager& Owner(lock::ResourceId rid) {
    return a_.table().Find(rid) != nullptr ? a_ : b_;
  }
  LockManager& a_;
  LockManager& b_;
};

// Capture skew: shard mirrors captured at different times can show one
// transaction waiting on two shards at once.  The sharded Step 1 keeps the
// lower-rid W edge, drops the other and nothing else, so the TST keeps one
// W edge per vertex and the walk over it terminates.
TEST(ShardedTstBuilderTest, CaptureSkewKeepsTheLowerRidWaitEdge) {
  using lock::RequestOutcome;
  LockManager a, b;  // shard a holds R1; shard b holds R2 and R3
  ASSERT_EQ(*a.Acquire(1, 1, LockMode::kX), RequestOutcome::kGranted);
  ASSERT_EQ(*a.Acquire(2, 1, LockMode::kX), RequestOutcome::kBlocked);
  ASSERT_EQ(*b.Acquire(3, 2, LockMode::kX), RequestOutcome::kGranted);
  ASSERT_EQ(*b.Acquire(2, 3, LockMode::kX), RequestOutcome::kGranted);
  // Shard b cannot know T2 already waits on shard a.
  ASSERT_EQ(*b.Acquire(2, 2, LockMode::kX), RequestOutcome::kBlocked);
  ASSERT_EQ(*b.Acquire(1, 3, LockMode::kX), RequestOutcome::kBlocked);

  TstBuilder builder;
  Tst& tst = builder.RefreshTst({&a.table(), &b.table()}, nullptr);

  const TstEntry& t2 = tst.At(2);
  ASSERT_TRUE(t2.pr.has_value());
  EXPECT_EQ(*t2.pr, 1u);
  ASSERT_FALSE(t2.waited.empty());
  EXPECT_TRUE(t2.waited[0].IsW());
  EXPECT_EQ(t2.waited[0].rid, 1u);
  for (size_t v = 0; v < tst.size(); ++v) {
    const std::span<const TwbgEdge> waited = tst.EntryAt(v).waited;
    for (size_t k = 1; k < waited.size(); ++k) {
      EXPECT_TRUE(waited[k].IsH()) << "T" << tst.TidAt(v) << " edge " << k;
    }
  }
  // Exactly the one W edge of T2 on R2 was dropped.
  size_t both_shards = 0;
  for (const LockManager* shard : {&a, &b}) {
    for (const TwbgEdge& e :
         BuildEcrEdges(shard->table(), /*include_sentinels=*/true)) {
      ++both_shards;
      if (e.IsW() && e.from == 2 && e.rid == 2) continue;
      bool found = false;
      const TstEntry& from = tst.At(e.from);
      for (const TwbgEdge& kept : from.waited) found = found || kept == e;
      EXPECT_TRUE(found) << e.ToString();
    }
  }
  EXPECT_EQ(tst.NumEdges(), both_shards - 1);

  // T1 -H(R1)-> T2 -H(R3)-> T1 is a cycle on the kept edges; the walk
  // finds it once and ends.
  TwoShardWalkHost host(a, b);
  CostTable costs;
  const WalkOutcome walk =
      RunWalkComponentParallel(tst, host, costs, DetectorOptions{}, nullptr);
  EXPECT_EQ(walk.cycles, 1u);
  EXPECT_EQ(walk.decisions.size(), 1u);
}

// Every checked-in scenario script, replayed state-only (acquire /
// release / cost lines; detection left to the test), must yield a
// byte-identical report from both detectors.
TEST(ParallelScenarioTest, ScriptsYieldIdenticalReports) {
  size_t count = 0;
  common::ThreadPool pool(3);
  for (const auto& entry :
       std::filesystem::directory_iterator(TWBG_SCENARIO_DIR)) {
    if (entry.path().extension() != ".twbg") continue;
    ++count;
    std::ifstream file(entry.path());
    ASSERT_TRUE(file.good()) << entry.path();
    ScriptRunner seq_runner, par_runner;
    std::string line;
    while (std::getline(file, line)) {
      // Keep only the state-building commands; the script's own `detect`
      // (and its expectations) would resolve the deadlock before the
      // detectors under test see it.
      std::istringstream tokens(line);
      std::string command;
      tokens >> command;
      if (command != "acquire" && command != "release" && command != "cost") {
        continue;
      }
      std::string out;
      ASSERT_TRUE(seq_runner.ExecuteLine(line, &out).ok())
          << entry.path() << ": " << line;
      ASSERT_TRUE(par_runner.ExecuteLine(line, &out).ok())
          << entry.path() << ": " << line;
    }
    PeriodicDetector seq;
    ParallelPeriodicDetector par({}, &pool);
    ResolutionReport seq_report =
        seq.RunPass(seq_runner.manager(), seq_runner.costs());
    ResolutionReport par_report =
        par.RunPass(par_runner.manager(), par_runner.costs());
    EXPECT_EQ(seq_report.ToString(), par_report.ToString()) << entry.path();
    EXPECT_EQ(Tst::Build(seq_runner.manager().table()).ToString(),
              Tst::Build(par_runner.manager().table()).ToString())
        << entry.path();
    EXPECT_TRUE(par_runner.manager().CheckInvariants().ok()) << entry.path();
  }
  EXPECT_GE(count, 4u);
}

}  // namespace
}  // namespace twbg::core
