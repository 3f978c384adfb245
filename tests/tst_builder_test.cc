// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The persistent incremental Step 1 (core::TstBuilder) against the
// from-scratch reference, over shard tables that live for a long random
// run: transactions retire and new ones take their freed slots, shard
// tables disagree about who waits (capture skew: one transaction waiting
// on two shards at once), and the walk applies TDR-2s to the very tables
// the builder tracks.  After every refresh the TST must render exactly
// like Tst::Build of the union table under the capture-skew rule, and the
// walk over it must decide exactly what the sequential engine decides over
// that reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cost_table.h"
#include "core/detection_engine.h"
#include "core/ecr.h"
#include "core/tst.h"
#include "core/tst_builder.h"
#include "lock/lock_manager.h"

namespace twbg::core {
namespace {

using lock::LockManager;
using lock::LockMode;
using lock::RequestOutcome;

constexpr size_t kShards = 4;

size_t ShardOf(lock::ResourceId rid) { return rid % kShards; }

std::vector<const lock::LockTable*> Tables(
    const std::vector<LockManager>& shards) {
  std::vector<const lock::LockTable*> tables;
  for (const LockManager& shard : shards) tables.push_back(&shard.table());
  return tables;
}

// Tst::Build of the union of the shard tables, except that a transaction
// waiting on several resources keeps only its lowest-rid W edge.
Tst SkewReference(const std::vector<LockManager>& shards) {
  lock::LockTable all;
  for (const LockManager& shard : shards) {
    for (const auto& [rid, state] : shard.table()) all.GetOrCreate(rid) = state;
  }
  std::vector<TwbgEdge> edges;
  std::set<lock::TransactionId> waiting;
  for (const TwbgEdge& e : BuildEcrEdges(all, /*include_sentinels=*/true)) {
    if (e.IsW() && !waiting.insert(e.from).second) continue;
    edges.push_back(e);
  }
  std::vector<lock::TransactionId> txns;
  for (const auto& [rid, state] : all) {
    for (const lock::HolderEntry& h : state.holders()) txns.push_back(h.tid);
    for (const lock::QueueEntry& q : state.queue()) txns.push_back(q.tid);
  }
  return Tst::FromEdges(edges, txns);
}

LockManager& Owner(std::vector<LockManager>& shards, lock::ResourceId rid) {
  return shards[ShardOf(rid)];
}

const lock::TxnLockInfo* AnyInfo(const std::vector<LockManager>& shards,
                                 lock::TransactionId tid) {
  for (const LockManager& shard : shards) {
    if (const lock::TxnLockInfo* info = shard.Info(tid)) return info;
  }
  return nullptr;
}

// Either side's walk host: the sequential engine's LockManager TDR-2 on
// the owning shard, journaled there, so the builder sees it.
class ShardsWalkHost final : public WalkHost {
 public:
  explicit ShardsWalkHost(std::vector<LockManager>& shards)
      : shards_(shards) {}
  const lock::ResourceState* FindResource(
      lock::ResourceId rid) const override {
    return shards_[ShardOf(rid)].table().Find(rid);
  }
  const lock::TxnLockInfo* FindWaitInfo(
      lock::TransactionId tid) const override {
    return AnyInfo(shards_, tid);
  }
  Status ApplyTdr2(lock::ResourceId rid,
                   lock::TransactionId junction) override {
    return Owner(shards_, rid).ApplyTdr2(rid, junction);
  }

 private:
  std::vector<LockManager>& shards_;
};

class ShardsResolutionHost final : public ResolutionHost {
 public:
  explicit ShardsResolutionHost(std::vector<LockManager>& shards)
      : shards_(shards) {}
  std::vector<lock::TransactionId> ReleaseAll(
      lock::TransactionId tid) override {
    std::vector<lock::TransactionId> granted;
    for (LockManager& shard : shards_) {
      for (lock::TransactionId g : shard.ReleaseAll(tid)) granted.push_back(g);
    }
    return granted;
  }
  std::vector<lock::TransactionId> Reschedule(lock::ResourceId rid) override {
    return Owner(shards_, rid).Reschedule(rid);
  }

 private:
  std::vector<LockManager>& shards_;
};

std::string Render(const WalkOutcome& walk) {
  std::string out;
  for (const VictimDecision& d : walk.decisions) out += d.ToString() + "\n";
  out += "aborts:";
  for (lock::TransactionId tid : walk.abortion_list) {
    out += " T" + std::to_string(tid);
  }
  out += "\nchanges:";
  for (lock::ResourceId rid : walk.change_list) {
    out += " R" + std::to_string(rid);
  }
  out += "\ncycles=" + std::to_string(walk.cycles) +
         " steps=" + std::to_string(walk.steps) + "\n";
  return out;
}

std::string RenderTables(const std::vector<LockManager>& shards) {
  std::string out;
  for (const LockManager& shard : shards) out += shard.table().ToString();
  return out;
}

// Both sides hold identical shard state; `inc` is tracked by one
// long-lived builder, `ref` is rebuilt from scratch whenever it is read.
struct Sides {
  std::vector<LockManager> inc = std::vector<LockManager>(kShards);
  std::vector<LockManager> ref = std::vector<LockManager>(kShards);
  CostTable inc_costs;
  CostTable ref_costs;
  TstBuilder builder;

  void Acquire(lock::TransactionId tid, lock::ResourceId rid, LockMode mode) {
    const Result<RequestOutcome> a = Owner(inc, rid).Acquire(tid, rid, mode);
    const Result<RequestOutcome> b = Owner(ref, rid).Acquire(tid, rid, mode);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) ASSERT_EQ(*a, *b);
  }
  void ReleaseAll(lock::TransactionId tid) {
    for (size_t s = 0; s < kShards; ++s) {
      inc[s].ReleaseAll(tid);
      ref[s].ReleaseAll(tid);
    }
  }
  void CancelWait(lock::TransactionId tid, size_t shard) {
    ASSERT_EQ(inc[shard].CancelWait(tid).ok(), ref[shard].CancelWait(tid).ok());
  }
  // Refreshes the builder and checks it against the reference.
  Tst& Refresh(const std::string& context) {
    Tst& tst = builder.RefreshTst(Tables(inc));
    EXPECT_EQ(tst.ToString(), SkewReference(ref).ToString()) << context;
    return tst;
  }
};

TEST(TstBuilderTest, LongLivedShardsMatchTheSkewReference) {
  Sides sides;
  // Capture skew by construction: T3 waits on R4 (shard 0) and on R5
  // (shard 1); the lower-rid wait is the one its TST entry keeps.
  sides.Acquire(1, 4, LockMode::kX);
  sides.Acquire(2, 5, LockMode::kX);
  sides.Acquire(3, 4, LockMode::kX);
  sides.Acquire(3, 5, LockMode::kX);
  ASSERT_TRUE(sides.inc[0].IsBlocked(3));
  ASSERT_TRUE(sides.inc[1].IsBlocked(3));
  {
    const Tst& tst = sides.Refresh("skew");
    ASSERT_TRUE(tst.At(3).pr.has_value());
    EXPECT_EQ(*tst.At(3).pr, 4u);
  }
  // T1 retires: T3 is granted R4, and its wait on R5 takes over.
  sides.ReleaseAll(1);
  {
    const Tst& tst = sides.Refresh("takeover");
    ASSERT_TRUE(tst.At(3).pr.has_value());
    EXPECT_EQ(*tst.At(3).pr, 5u);
  }

  common::Rng rng(20261018);
  std::vector<lock::TransactionId> active = {2, 3};
  lock::TransactionId next_tid = 4;
  while (active.size() < 10) active.push_back(next_tid++);
  constexpr int kOps = 12000;
  constexpr lock::ResourceId kResources = 24;
  size_t skewed_refreshes = 0;
  size_t tdr2 = 0;
  size_t aborts = 0;
  size_t max_slots = 0;
  for (int op = 0; op < kOps; ++op) {
    const std::string context = "op " + std::to_string(op);
    const size_t pick = rng.NextBelow(active.size());
    const lock::TransactionId tid = active[pick];
    const double u = rng.NextDouble();
    if (u < 0.08) {
      // Retire; a fresh tid takes the place (and, later, a freed slot).
      sides.ReleaseAll(tid);
      active[pick] = next_tid++;
    } else if (u < 0.12) {
      const size_t shard = rng.NextBelow(kShards);
      if (sides.inc[shard].IsBlocked(tid)) sides.CancelWait(tid, shard);
    } else {
      const lock::ResourceId rid =
          static_cast<lock::ResourceId>(rng.NextInRange(1, kResources));
      // A transaction blocked on one shard may still request on another:
      // that shard cannot tell, which is how a wait skews.
      if (!Owner(sides.inc, rid).IsBlocked(tid)) {
        sides.Acquire(tid, rid, lock::kRealModes[rng.NextBelow(5)]);
      }
    }
    if (::testing::Test::HasFatalFailure()) return;

    Tst& tst = sides.Refresh(context);
    if (::testing::Test::HasFailure()) return;
    max_slots = std::max(max_slots, tst.num_slots());
    size_t waits = 0;
    for (lock::TransactionId t : active) {
      size_t shards_waiting = 0;
      for (const LockManager& shard : sides.inc) {
        shards_waiting += shard.IsBlocked(t) ? 1 : 0;
      }
      waits += shards_waiting > 1 ? 1 : 0;
    }
    skewed_refreshes += waits > 0 ? 1 : 0;

    if (op % 7 != 6) continue;
    // Walk both sides: the incremental TST over the tracked tables, the
    // reference over the others.
    Tst reference = SkewReference(sides.ref);
    ShardsWalkHost inc_host(sides.inc);
    ShardsWalkHost ref_host(sides.ref);
    const DetectorOptions options;
    WalkOutcome inc_walk = RunWalk(tst, tst.Transactions(), inc_host,
                                   sides.inc_costs, options);
    WalkOutcome ref_walk = RunWalk(reference, reference.Transactions(),
                                   ref_host, sides.ref_costs, options);
    ASSERT_EQ(Render(inc_walk), Render(ref_walk)) << context;
    ASSERT_EQ(RenderTables(sides.inc), RenderTables(sides.ref)) << context;
    ASSERT_TRUE(sides.inc_costs == sides.ref_costs) << context;
    tdr2 += inc_walk.change_list.size();
    // The walk journaled its TDR-2s: the builder sees them before Step 3.
    sides.Refresh(context + ", after the walk");
    if (::testing::Test::HasFailure()) return;
    ShardsResolutionHost inc_res(sides.inc);
    ShardsResolutionHost ref_res(sides.ref);
    const ResolutionReport inc_report = ApplyResolution(
        std::move(inc_walk), inc_res, sides.inc_costs, options);
    const ResolutionReport ref_report = ApplyResolution(
        std::move(ref_walk), ref_res, sides.ref_costs, options);
    ASSERT_EQ(inc_report.ToString(), ref_report.ToString()) << context;
    for (lock::TransactionId victim : inc_report.aborted) {
      ++aborts;
      const auto it = std::find(active.begin(), active.end(), victim);
      ASSERT_NE(it, active.end()) << context;
      *it = next_tid++;
    }
  }
  EXPECT_GT(skewed_refreshes, 100u);
  EXPECT_GT(tdr2, 0u);
  EXPECT_GT(aborts, 0u);
  // Over a thousand tids came and went through the slots of ten live
  // transactions plus one that joins while others leave: freed slots were
  // reused.
  EXPECT_GT(next_tid, 1000u);
  EXPECT_LE(max_slots, active.size() + 1);
}

}  // namespace
}  // namespace twbg::core
