// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// The paper's guarantees on every reachable small lock state.  A
// breadth-first search from the empty table visits every state reachable
// when any transaction that is not blocked may request any of the five
// modes on any resource and any transaction may release everything
// (commit, or abort while blocked); states are told apart by
// LockTable::ToString.  Scopes: 3 transactions x 1 resource, 2 x 2 and
// 4 x 1.  At every state:
//
//   * Theorem 1 — the H/W-TWBG has a cycle iff the reduction oracle finds
//     a deadlock — and Lemmas 1-3 on each elementary cycle (an H edge, so
//     not W edges only; at least two TRRPs, so not a single one);
//   * when deadlocked, one periodic pass with unit costs leaves no
//     deadlock and aborts only transactions the oracle calls stuck;
//   * at every blocking request, the continuous detector resolves the
//     cycle the request closes;
//   * at 2 x 2, with the state split into two shard tables, the sharded
//     Step 1 (core::TstBuilder) yields Tst::Build's TST and the same walk
//     decisions, whether the builder is fresh or lives across states.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/continuous_detector.h"
#include "core/cost_table.h"
#include "core/detection_engine.h"
#include "core/oracle.h"
#include "core/periodic_detector.h"
#include "core/tst.h"
#include "core/tst_builder.h"
#include "core/twbg.h"
#include "lock/lock_manager.h"

namespace twbg::core {
namespace {

using lock::LockManager;
using lock::RequestOutcome;

// One edge of the search: a request (mode_index into kRealModes) or, with
// mode_index == kRelease, releasing everything.
struct Move {
  uint8_t tid = 0;
  uint8_t rid = 0;
  uint8_t mode_index = 0;
};
constexpr uint8_t kRelease = 0xff;

struct Node {
  uint32_t parent = 0;
  Move move;
  bool deadlocked = false;
  // Bit t: the continuous check already ran for a request of T(t) that
  // blocked into this state.
  uint32_t blocks_checked = 0;
};

// True when `tid` can reach itself in `graph`.
bool OnCycle(const HwTwbg& graph, lock::TransactionId tid) {
  std::vector<lock::TransactionId> stack = {tid};
  std::vector<lock::TransactionId> seen;
  while (!stack.empty()) {
    const lock::TransactionId from = stack.back();
    stack.pop_back();
    for (const TwbgEdge& e : graph.OutEdges(from)) {
      if (e.to == tid) return true;
      if (std::find(seen.begin(), seen.end(), e.to) != seen.end()) continue;
      seen.push_back(e.to);
      stack.push_back(e.to);
    }
  }
  return false;
}

std::string Decisions(const WalkOutcome& walk) {
  std::string out;
  for (const VictimDecision& d : walk.decisions) out += d.ToString() + "\n";
  return out;
}

struct Totals {
  size_t states = 0;
  size_t deadlocked = 0;
  size_t blocking_checks = 0;
  size_t sharded_checks = 0;
};

class StateSpace {
 public:
  StateSpace(int txns, int resources, bool sharded)
      : txns_(txns), resources_(resources), sharded_(sharded) {}

  Totals Run() {
    nodes_.push_back(Node{});
    index_.emplace(LockManager().table().ToString(), 0);
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
      const LockManager state = Replay(i);
      CheckState(i, state);
      if (::testing::Test::HasFailure()) break;
      Expand(i, state);
      if (::testing::Test::HasFailure()) break;
    }
    totals_.states = nodes_.size();
    return totals_;
  }

 private:
  LockManager Replay(uint32_t i) const {
    std::vector<Move> path;
    for (uint32_t n = i; n != 0; n = nodes_[n].parent) {
      path.push_back(nodes_[n].move);
    }
    LockManager manager;
    for (auto it = path.rbegin(); it != path.rend(); ++it) Apply(manager, *it);
    return manager;
  }

  static Result<RequestOutcome> Apply(LockManager& manager, const Move& m) {
    if (m.mode_index == kRelease) {
      manager.ReleaseAll(m.tid);
      return RequestOutcome::kGranted;
    }
    return manager.Acquire(m.tid, m.rid, lock::kRealModes[m.mode_index]);
  }

  void Expand(uint32_t i, const LockManager& state) {
    for (int t = 1; t <= txns_; ++t) {
      const auto tid = static_cast<uint8_t>(t);
      std::vector<Move> moves;
      if (state.Info(tid) != nullptr) moves.push_back(Move{tid, 0, kRelease});
      if (!state.IsBlocked(tid)) {
        for (int r = 1; r <= resources_; ++r) {
          for (uint8_t m = 0; m < 5; ++m) {
            moves.push_back(Move{tid, static_cast<uint8_t>(r), m});
          }
        }
      }
      for (const Move& move : moves) {
        LockManager child = state;
        const Result<RequestOutcome> outcome = Apply(child, move);
        if (!outcome.ok()) continue;
        auto [it, inserted] = index_.emplace(
            child.table().ToString(), static_cast<uint32_t>(nodes_.size()));
        if (inserted) nodes_.push_back(Node{i, move});
        if (*outcome != RequestOutcome::kBlocked) continue;
        Node& reached = nodes_[it->second];
        if ((reached.blocks_checked >> t) & 1u) continue;
        reached.blocks_checked |= 1u << t;
        CheckBlock(child, tid, nodes_[i].deadlocked);
      }
    }
  }

  // The continuous detector, run at the request that blocked: every cycle
  // through the requester is resolved, and a state that was deadlock-free
  // before the request is deadlock-free again.
  void CheckBlock(LockManager state, lock::TransactionId blocked,
                  bool was_deadlocked) {
    ++totals_.blocking_checks;
    const std::string before = state.table().ToString();
    CostTable costs;
    ContinuousDetector detector;
    detector.OnBlock(state, costs, blocked);
    ASSERT_FALSE(OnCycle(HwTwbg::Build(state.table()), blocked))
        << "T" << blocked << " still on a cycle after blocking into\n"
        << before;
    if (!was_deadlocked) {
      ASSERT_FALSE(AnalyzeByReduction(state.table()).deadlocked)
          << "T" << blocked << " blocking into\n" << before;
    }
  }

  void CheckState(uint32_t i, const LockManager& state) {
    const std::string key = state.table().ToString();
    const OracleResult oracle = AnalyzeByReduction(state.table());
    nodes_[i].deadlocked = oracle.deadlocked;
    const HwTwbg graph = HwTwbg::Build(state.table());
    ASSERT_EQ(graph.HasCycle(), oracle.deadlocked) << key;  // Theorem 1
    for (const auto& cycle : graph.ElementaryCycles()) {
      size_t h_edges = 0;
      for (size_t k = 0; k < cycle.size(); ++k) {
        const TwbgEdge* e =
            graph.FindEdge(cycle[k], cycle[(k + 1) % cycle.size()]);
        ASSERT_NE(e, nullptr) << key;
        h_edges += e->IsH();
      }
      // Lemma 1: not W edges only.  Lemmas 2-3: at least two TRRPs, one
      // per H edge.
      ASSERT_GE(h_edges, 2u) << key;
      const auto trrps = graph.DecomposeCycle(cycle);
      ASSERT_TRUE(trrps.ok()) << key;
      ASSERT_EQ(trrps->size(), h_edges) << key;
    }

    if (oracle.deadlocked) {
      ++totals_.deadlocked;
      LockManager copy = state;
      CostTable costs;
      PeriodicDetector detector;
      const ResolutionReport report = detector.RunPass(copy, costs);
      ASSERT_FALSE(AnalyzeByReduction(copy.table()).deadlocked) << key;
      for (lock::TransactionId victim : report.aborted) {
        ASSERT_TRUE(std::binary_search(oracle.stuck.begin(),
                                       oracle.stuck.end(), victim))
            << "T" << victim << " is not stuck in\n" << key;
      }
    }
    if (sharded_) CheckSharded(state);
  }

  // Step 1 over two shard tables against Tst::Build, and the walk over
  // each TST against the sequential walk over Tst::Build's.
  void CheckSharded(const LockManager& state) {
    ++totals_.sharded_checks;
    lock::LockTable shards[2];
    for (const auto& [rid, resource] : state.table()) {
      shards[rid % 2].GetOrCreate(rid) = resource;
    }
    const std::vector<const lock::LockTable*> tables = {&shards[0],
                                                        &shards[1]};
    Tst reference = Tst::Build(state.table());
    const std::string expected = reference.ToString();
    std::string expected_walk;
    {
      LockManager copy = state;
      CostTable costs;
      expected_walk = Decisions(
          RunWalk(reference, reference.Transactions(), copy, costs, {}));
    }
    TstBuilder fresh;
    for (TstBuilder* builder : {&fresh, &long_lived_}) {
      Tst& tst = builder->RefreshTst(tables);
      ASSERT_EQ(tst.ToString(), expected);
      LockManager copy = state;
      CostTable costs;
      ASSERT_EQ(
          Decisions(RunWalk(tst, tst.Transactions(), copy, costs, {})),
          expected_walk)
          << expected;
    }
  }

  const int txns_;
  const int resources_;
  const bool sharded_;
  std::vector<Node> nodes_;
  std::unordered_map<std::string, uint32_t> index_;
  TstBuilder long_lived_;
  Totals totals_;
};

TEST(StateSpaceTest, ThreeTransactionsOneResource) {
  const Totals totals = StateSpace(3, 1, false).Run();
  EXPECT_EQ(totals.states, 4102u);
  EXPECT_EQ(totals.deadlocked, 2160u);
  EXPECT_GT(totals.blocking_checks, 0u);
}

TEST(StateSpaceTest, TwoTransactionsTwoResources) {
  const Totals totals = StateSpace(2, 2, true).Run();
  EXPECT_EQ(totals.states, 10461u);
  EXPECT_EQ(totals.deadlocked, 5676u);
  EXPECT_EQ(totals.sharded_checks, totals.states);
}

TEST(StateSpaceTest, FourTransactionsOneResource) {
  const Totals totals = StateSpace(4, 1, false).Run();
  EXPECT_EQ(totals.states, 113037u);
  EXPECT_EQ(totals.deadlocked, 68028u);
}

}  // namespace
}  // namespace twbg::core
