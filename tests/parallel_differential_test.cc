// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Differential tests between the periodic pass over one lock manager and
// the sharded pass (PeriodicDetector::RunPass over a ShardedDetectionHost,
// what txn::ConcurrentLockService's stop-the-world pass runs).  The same
// operations run on one manager and, routed by rid as the service routes
// them, on 2 and 4 shard managers.  Over 1200+ randomized schedules
// (uniform and zipf-skewed) and every checked-in scenario script, the
// sharded pass must produce a byte-identical resolution report, the same
// post state and costs, and — when observed — the same event stream
// (timing values aside; each shard numbers its own wait spans, so a wait
// span is compared by the wait it names).  The sharded Step 1
// (core::TstBuilder over several tables) is also checked on its own
// against a single-table build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/ecr.h"
#include "core/oracle.h"
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
using lock::RequestOutcome;

constexpr size_t kShardCounts[] = {2, 4};

// ConcurrentLockService::ShardIndex: Fibonacci hashing of the rid.
size_t ShardIndex(lock::ResourceId rid, size_t num_shards) {
  const uint64_t h = static_cast<uint64_t>(rid) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>((h >> 32) % num_shards);
}

// Lock state split by rid over shard managers, seen through the host the
// service's stop-the-world pass hands the detector: lookups and TDR-2 on
// the owning shard, and a victim's locks released in ascending rid across
// its shards with one kLockRelease summary
// (ConcurrentLockService::ReleaseAllShardsLocked).
class ShardedState final : public ShardedDetectionHost {
 public:
  explicit ShardedState(size_t num_shards) : shards_(num_shards) {}

  LockManager& Owner(lock::ResourceId rid) {
    return shards_[ShardIndex(rid, shards_.size())];
  }
  void set_event_bus(obs::EventBus* bus) {
    bus_ = bus;
    for (LockManager& shard : shards_) shard.set_event_bus(bus);
  }
  // Every shard's resources in one table.
  lock::LockTable Union() const {
    lock::LockTable all;
    for (const LockManager& shard : shards_) {
      for (const auto& [rid, state] : shard.table()) {
        all.GetOrCreate(rid) = state;
      }
    }
    return all;
  }
  bool CheckInvariants() const {
    for (const LockManager& shard : shards_) {
      if (!shard.CheckInvariants().ok()) return false;
    }
    return true;
  }

  size_t num_shards() const override { return shards_.size(); }
  const lock::LockTable& shard_table(size_t shard) const override {
    return shards_[shard].table();
  }
  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return shards_[ShardIndex(rid, shards_.size())].table().Find(rid);
  }
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    const lock::TxnLockInfo* any = nullptr;
    for (const LockManager& shard : shards_) {
      const lock::TxnLockInfo* info = shard.Info(tid);
      if (info == nullptr) continue;
      if (info->blocked_on.has_value()) return info;
      if (any == nullptr) any = info;
    }
    return any;
  }
  Status ApplyTdr2(lock::ResourceId rid,
                   lock::TransactionId junction) override {
    return Owner(rid).ApplyTdr2(rid, junction);
  }
  std::vector<lock::TransactionId> ReleaseAll(
      lock::TransactionId tid) override {
    std::vector<lock::ResourceId> rids;
    std::vector<LockManager*> known;
    for (LockManager& shard : shards_) {
      const lock::TxnLockInfo* info = shard.Info(tid);
      if (info == nullptr) continue;
      known.push_back(&shard);
      for (lock::ResourceId rid : info->touched) rids.push_back(rid);
    }
    if (known.empty()) return {};
    std::sort(rids.begin(), rids.end());
    std::vector<lock::TransactionId> granted;
    for (lock::ResourceId rid : rids) {
      for (lock::TransactionId g : Owner(rid).ReleaseOn(tid, rid)) {
        granted.push_back(g);
      }
    }
    for (LockManager* shard : known) shard->Forget(tid);
    if (obs::Enabled(bus_)) {
      obs::Event event;
      event.kind = obs::EventKind::kLockRelease;
      event.tid = tid;
      event.a = rids.size();
      event.b = granted.size();
      bus_->Emit(event);
    }
    return granted;
  }
  std::vector<lock::TransactionId> Reschedule(lock::ResourceId rid) override {
    return Owner(rid).Reschedule(rid);
  }

 private:
  std::vector<LockManager> shards_;
  obs::EventBus* bus_ = nullptr;
};

// One random lock-manager op, replayed in lockstep on both sides.
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
        // zipf-like hot set with a sparse tail.
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

// Applies `op` to the one manager and to the shards.  A shard cannot see
// that a transaction waits on another shard, so, like the service, the
// shards get only the requests the whole table admits.
void Apply(LockManager& lm, ShardedState& sharded, const Op& op) {
  if (op.release) {
    ASSERT_EQ(lm.ReleaseAll(op.tid), sharded.ReleaseAll(op.tid));
    return;
  }
  const Result<RequestOutcome> outcome = lm.Acquire(op.tid, op.rid, op.mode);
  if (!outcome.ok()) return;
  const Result<RequestOutcome> shard_outcome =
      sharded.Owner(op.rid).Acquire(op.tid, op.rid, op.mode);
  ASSERT_TRUE(shard_outcome.ok());
  ASSERT_EQ(*shard_outcome, *outcome);
}

// Event comparison: everything except the stopwatch-driven `value` of the
// pass-timing kinds must match (seq/time are stamped identically by
// construction).
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

// The wait span of every transaction in [1, txns] that waits, by `lookup`.
std::map<lock::TransactionId, uint64_t> WaitSpans(const WaitInfoLookup& lookup,
                                                  int txns) {
  std::map<lock::TransactionId, uint64_t> spans;
  for (int t = 1; t <= txns; ++t) {
    const lock::TransactionId tid = static_cast<lock::TransactionId>(t);
    const lock::TxnLockInfo* info = lookup.FindWaitInfo(tid);
    if (info != nullptr && info->blocked_on.has_value()) {
      spans[tid] = info->wait_span;
    }
  }
  return spans;
}

// Replaces each wait-span id of a pass's stream by the wait it names: a
// kLockWakeup's span must be its waiter's, and a post-mortem member's
// that member's, as of the start of the pass (`spans`).
std::deque<obs::Event> NameWaitSpans(
    std::deque<obs::Event> events,
    const std::map<lock::TransactionId, uint64_t>& spans,
    const std::string& context) {
  for (obs::Event& event : events) {
    if (event.kind == obs::EventKind::kLockWakeup) {
      const auto it = spans.find(event.tid);
      EXPECT_TRUE(it != spans.end() && it->second == event.span)
          << context << ": T" << event.tid << " woke with span "
          << event.span;
      event.span = 0;
    } else if (event.kind == obs::EventKind::kCyclePostMortem) {
      for (const auto& [tid, span] : spans) {
        const std::string id = common::Format(
            "T%u(span=%llu,", tid, static_cast<unsigned long long>(span));
        const std::string name = common::Format("T%u(span=W,", tid);
        for (size_t at = event.detail.find(id); at != std::string::npos;
             at = event.detail.find(id, at + name.size())) {
          event.detail.replace(at, id.size(), name);
        }
      }
    }
  }
  return events;
}

class ParallelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Report parity on random schedules.  The detectors live across rounds,
// so both incremental caches also exercise the table-switch (full-sweep)
// path and the warm journal path.  6 seeds x 100 rounds x up to 4 passes
// each = well over 600 distinct states, each at 2 and 4 shards.
TEST_P(ParallelDifferentialTest, ReportParityOnRandomSchedules) {
  for (const size_t num_shards : kShardCounts) {
    common::Rng rng(GetParam());
    PeriodicDetector seq, sharded;
    size_t total_cycles = 0;
    for (int round = 0; round < 100; ++round) {
      LockManager seq_lm;
      ShardedState state(num_shards);
      CostTable seq_costs, sharded_costs;
      const int txns = 2 + static_cast<int>(rng.NextBelow(13));
      std::vector<Op> schedule = MakeSchedule(rng, txns, 10, 70, false);
      for (size_t i = 0; i < schedule.size(); ++i) {
        Apply(seq_lm, state, schedule[i]);
        if (HasFatalFailure()) return;
        if (i % 20 != 0 && i + 1 != schedule.size()) continue;
        ResolutionReport seq_report = seq.RunPass(seq_lm, seq_costs);
        ResolutionReport sharded_report =
            sharded.RunPass(state, sharded_costs);
        ASSERT_EQ(seq_report.ToString(), sharded_report.ToString())
            << num_shards << " shards, seed " << GetParam() << " round "
            << round << " op " << i;
        ASSERT_EQ(seq_lm.table().ToString(), state.Union().ToString());
        total_cycles += sharded_report.cycles_detected;
      }
      // Identical post states, both deadlock-free and consistent.
      ASSERT_FALSE(AnalyzeByReduction(state.Union()).deadlocked);
      ASSERT_TRUE(seq_lm.CheckInvariants().ok());
      ASSERT_TRUE(state.CheckInvariants());
      // Costs must have received identical TDR-2 bumps: the same tids
      // with the same costs, in whatever order each table stores them.
      ASSERT_TRUE(seq_costs == sharded_costs);
    }
    EXPECT_GT(total_cycles, 0u);
  }
}

// Observed parity: with a bus on both sides, the sharded pass must emit
// the one-manager pass's stream — same kinds, payloads, details and
// sequence numbers, with each wait span naming the same wait.
TEST_P(ParallelDifferentialTest, EventStreamParityWhenObserved) {
  for (const size_t num_shards : kShardCounts) {
    common::Rng rng(GetParam() ^ 0xabcdef);
    for (int round = 0; round < 100; ++round) {
      obs::EventBus seq_bus, sharded_bus;
      obs::CollectorSink seq_sink, sharded_sink;
      seq_bus.Subscribe(&seq_sink);
      sharded_bus.Subscribe(&sharded_sink);
      DetectorOptions seq_options, sharded_options;
      seq_options.event_bus = &seq_bus;
      sharded_options.event_bus = &sharded_bus;
      PeriodicDetector seq(seq_options), sharded(sharded_options);
      LockManager seq_lm;
      ShardedState state(num_shards);
      CostTable seq_costs, sharded_costs;
      const int txns = 2 + static_cast<int>(rng.NextBelow(11));
      std::vector<Op> schedule = MakeSchedule(rng, txns, 8, 60, false);
      for (const Op& op : schedule) {
        Apply(seq_lm, state, op);
        if (HasFatalFailure()) return;
      }
      seq_lm.set_event_bus(&seq_bus);
      state.set_event_bus(&sharded_bus);
      const auto seq_spans = WaitSpans(LockManagerWalkHost(seq_lm), txns);
      const auto sharded_spans = WaitSpans(state, txns);
      ResolutionReport seq_report = seq.RunPass(seq_lm, seq_costs);
      ResolutionReport sharded_report = sharded.RunPass(state, sharded_costs);
      std::ostringstream context;
      context << num_shards << " shards, seed " << GetParam() << " round "
              << round;
      ASSERT_EQ(seq_report.ToString(), sharded_report.ToString())
          << context.str();
      // One post-mortem per resolved cycle on both sides (bus is active).
      ASSERT_EQ(sharded_report.post_mortems.size(),
                sharded_report.cycles_detected);
      ExpectSameStream(
          NameWaitSpans(seq_sink.events(), seq_spans, context.str()),
          NameWaitSpans(sharded_sink.events(), sharded_spans, context.str()),
          context.str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferentialTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// Zipf-skewed schedules: a hot resource set plus a sparse tail.  300 more
// schedules, the sharded pass at 2 and 4 shards agreeing with the
// one-manager pass, with the incremental Step 1 and with the from-scratch
// one (Tst::Build over one table, a throwaway TstBuilder over several).
TEST(ParallelDifferentialZipfTest, SkewedSchedulesAgreeOnAllPaths) {
  for (const bool incremental : {true, false}) {
    for (const size_t num_shards : kShardCounts) {
      common::Rng rng(777777);
      DetectorOptions options;
      options.incremental_build = incremental;
      PeriodicDetector seq(options), sharded(options);
      size_t total_cycles = 0;
      for (int round = 0; round < 300; ++round) {
        LockManager seq_lm;
        ShardedState state(num_shards);
        CostTable seq_costs, sharded_costs;
        const int txns = 2 + static_cast<int>(rng.NextBelow(15));
        std::vector<Op> schedule = MakeSchedule(rng, txns, 12, 60, true);
        for (const Op& op : schedule) {
          Apply(seq_lm, state, op);
          if (HasFatalFailure()) return;
        }
        ResolutionReport seq_report = seq.RunPass(seq_lm, seq_costs);
        ResolutionReport sharded_report =
            sharded.RunPass(state, sharded_costs);
        ASSERT_EQ(seq_report.ToString(), sharded_report.ToString())
            << num_shards << " shards, incremental " << incremental
            << ", round " << round;
        ASSERT_EQ(seq_lm.table().ToString(), state.Union().ToString());
        ASSERT_TRUE(state.CheckInvariants());
        total_cycles += sharded_report.cycles_detected;
      }
      EXPECT_GT(total_cycles, 0u);
    }
  }
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
        ASSERT_EQ(builder.RefreshTst(tables).ToString(), expected)
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
          ASSERT_EQ(builder.RefreshTst(copy_tables).ToString(), expected);
          ASSERT_TRUE(builder.stats().full_sweep);
          ASSERT_EQ(builder.RefreshTst(tables).ToString(), expected);
          ASSERT_TRUE(builder.stats().full_sweep);
        }
      }
    }
  }
  EXPECT_GT(journal_refreshes, 0u);
  EXPECT_EQ(copy_rounds, 15u);
}

// WalkHost over two shard managers with disjoint rids.
class TwoShardWalkHost final : public WalkHost {
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
  Status ApplyTdr2(lock::ResourceId rid,
                   lock::TransactionId junction) override {
    LockManager& owner = a_.table().Find(rid) != nullptr ? a_ : b_;
    return owner.ApplyTdr2(rid, junction);
  }

 private:
  LockManager& a_;
  LockManager& b_;
};

// Capture skew: shard mirrors captured at different times can show one
// transaction waiting on two shards at once.  The sharded Step 1 keeps the
// lower-rid W edge, drops the other and nothing else, so the TST keeps one
// W edge per vertex and the walk over it terminates.
TEST(ShardedTstBuilderTest, CaptureSkewKeepsTheLowerRidWaitEdge) {
  LockManager a, b;  // shard a holds R1; shard b holds R2 and R3
  ASSERT_EQ(*a.Acquire(1, 1, LockMode::kX), RequestOutcome::kGranted);
  ASSERT_EQ(*a.Acquire(2, 1, LockMode::kX), RequestOutcome::kBlocked);
  ASSERT_EQ(*b.Acquire(3, 2, LockMode::kX), RequestOutcome::kGranted);
  ASSERT_EQ(*b.Acquire(2, 3, LockMode::kX), RequestOutcome::kGranted);
  // Shard b cannot know T2 already waits on shard a.
  ASSERT_EQ(*b.Acquire(2, 2, LockMode::kX), RequestOutcome::kBlocked);
  ASSERT_EQ(*b.Acquire(1, 3, LockMode::kX), RequestOutcome::kBlocked);

  TstBuilder builder;
  Tst& tst = builder.RefreshTst({&a.table(), &b.table()});

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
      RunWalk(tst, tst.Transactions(), host, costs, DetectorOptions{});
  EXPECT_EQ(walk.cycles, 1u);
  EXPECT_EQ(walk.decisions.size(), 1u);
}

// A script's state-building line (acquire / release / cost), replayed
// onto the shards the way ScriptRunner applies it to its one manager.
void ApplyScriptLine(const std::string& line, ShardedState& state,
                     CostTable& costs) {
  std::istringstream tokens(line);
  std::string command, first, second, third;
  tokens >> command >> first >> second >> third;
  const auto id = [](std::string text) {
    if (!text.empty() && (text[0] == 'T' || text[0] == 'R')) text.erase(0, 1);
    return static_cast<uint32_t>(std::stoul(text));
  };
  if (command == "acquire") {
    const std::optional<LockMode> mode = lock::LockModeFromString(third);
    ASSERT_TRUE(mode.has_value()) << line;
    const lock::ResourceId rid = id(second);
    ASSERT_TRUE(state.Owner(rid).Acquire(id(first), rid, *mode).ok()) << line;
  } else if (command == "release") {
    state.ReleaseAll(id(first));
    costs.Erase(id(first));
  } else {
    costs.Set(id(first), std::strtod(second.c_str(), nullptr));
  }
}

// Every checked-in scenario script, replayed state-only (acquire /
// release / cost lines; detection left to the test), must yield a
// byte-identical report from the one-manager and the sharded pass.
TEST(ParallelScenarioTest, ScriptsYieldIdenticalReports) {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(TWBG_SCENARIO_DIR)) {
    if (entry.path().extension() != ".twbg") continue;
    ++count;
    for (const size_t num_shards : kShardCounts) {
      std::ifstream file(entry.path());
      ASSERT_TRUE(file.good()) << entry.path();
      ScriptRunner seq_runner;
      ShardedState state(num_shards);
      CostTable sharded_costs;
      std::string line;
      while (std::getline(file, line)) {
        // Keep only the state-building commands; the script's own
        // `detect` (and its expectations) would resolve the deadlock
        // before the detectors under test see it.
        std::istringstream tokens(line);
        std::string command;
        tokens >> command;
        if (command != "acquire" && command != "release" &&
            command != "cost") {
          continue;
        }
        std::string out;
        ASSERT_TRUE(seq_runner.ExecuteLine(line, &out).ok())
            << entry.path() << ": " << line;
        ApplyScriptLine(line, state, sharded_costs);
        if (HasFatalFailure()) return;
      }
      PeriodicDetector seq, sharded;
      ResolutionReport seq_report =
          seq.RunPass(seq_runner.manager(), seq_runner.costs());
      ResolutionReport sharded_report = sharded.RunPass(state, sharded_costs);
      EXPECT_EQ(seq_report.ToString(), sharded_report.ToString())
          << entry.path() << ", " << num_shards << " shards";
      EXPECT_EQ(seq_runner.manager().table().ToString(),
                state.Union().ToString())
          << entry.path() << ", " << num_shards << " shards";
      EXPECT_TRUE(state.CheckInvariants()) << entry.path();
    }
  }
  EXPECT_GE(count, 4u);
}

}  // namespace
}  // namespace twbg::core
