// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "lock/lock_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"

namespace twbg::lock {
namespace {

using enum LockMode;

TEST(LockTableTest, GetOrCreateIsIdempotent) {
  LockTable table;
  ResourceState& a = table.GetOrCreate(7);
  ResourceState& b = table.GetOrCreate(7);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(a.rid(), 7u);
}

TEST(LockTableTest, FindReturnsNullForUnknown) {
  LockTable table;
  EXPECT_EQ(table.Find(3), nullptr);
  table.GetOrCreate(3);
  EXPECT_NE(table.Find(3), nullptr);
  EXPECT_NE(table.FindMutable(3), nullptr);
}

TEST(LockTableTest, EraseIfFreeDropsOnlyFreeResources) {
  LockTable table;
  ResourceState& r = table.GetOrCreate(1);
  ASSERT_TRUE(r.Request(1, kS).ok());
  table.EraseIfFree(1);
  EXPECT_NE(table.Find(1), nullptr);  // held: kept
  table.GetOrCreate(2);
  table.EraseIfFree(2);
  EXPECT_EQ(table.Find(2), nullptr);  // free: dropped
}

TEST(LockTableTest, IterationIsOrderedByResourceId) {
  LockTable table;
  table.GetOrCreate(5);
  table.GetOrCreate(1);
  table.GetOrCreate(3);
  std::vector<ResourceId> seen;
  for (const auto& [rid, state] : table) seen.push_back(rid);
  EXPECT_EQ(seen, (std::vector<ResourceId>{1, 3, 5}));
}

// The ordered-iteration seam must survive arbitrary create/erase churn:
// the hash table underneath iterates in insertion-perturbed order, so
// ascending-rid iteration is a maintained index, not an accident.  Drive
// it against a std::set oracle.
TEST(LockTableTest, OrderedIterationSurvivesChurn) {
  common::Rng rng(0x10ab1e);
  LockTable table;
  std::set<ResourceId> oracle;
  for (int op = 0; op < 20000; ++op) {
    const ResourceId rid = static_cast<ResourceId>(rng.NextInRange(1, 300));
    if (rng.NextBernoulli(0.4)) {
      // Erase path: only free states are dropped, so make it free first.
      if (ResourceState* state = table.FindMutable(rid)) state->Remove(1);
      table.EraseIfFree(rid);
      oracle.erase(rid);
    } else {
      ResourceState& state = table.GetOrCreate(rid);
      // Recycled or fresh, the slot must come back as a free state with
      // the right identity.
      ASSERT_EQ(state.rid(), rid);
      if (state.IsFree()) ASSERT_TRUE(state.TryFastGrant(1, kX));
      oracle.insert(rid);
    }
    if (op % 500 == 0) {
      std::vector<ResourceId> seen;
      for (const auto& [r, s] : table) seen.push_back(r);
      ASSERT_TRUE(std::equal(seen.begin(), seen.end(), oracle.begin(),
                             oracle.end()))
          << "iteration diverged from ascending-rid order at op " << op;
    }
  }
  std::vector<ResourceId> seen;
  for (const auto& [r, s] : table) seen.push_back(r);
  EXPECT_TRUE(
      std::equal(seen.begin(), seen.end(), oracle.begin(), oracle.end()));
}

TEST(LockTableTest, RecycledStatesStartFresh) {
  LockTable table;
  // Spill R1's queue past the inline capacity, then free and erase it so
  // its slot keeps that heap capacity for the next resource.
  ResourceState& first = table.GetOrCreate(1);
  ASSERT_TRUE(first.Request(1, kX).ok());
  for (TransactionId tid = 2; tid <= 9; ++tid) {
    ASSERT_TRUE(first.Request(tid, kX).ok());  // queues
  }
  for (TransactionId tid = 1; tid <= 9; ++tid) first.Remove(tid);
  table.EraseIfFree(1);
  ASSERT_EQ(table.Find(1), nullptr);
  // The recycled slot must be indistinguishable from a new resource.
  ResourceState& reborn = table.GetOrCreate(2);
  EXPECT_EQ(reborn.rid(), 2u);
  EXPECT_TRUE(reborn.IsFree());
  EXPECT_EQ(reborn.total_mode(), kNL);
  EXPECT_TRUE(reborn.CheckInvariants().ok());
}

TEST(LockTableTest, CopyIsDeep) {
  LockTable table;
  ASSERT_TRUE(table.GetOrCreate(1).Request(1, kX).ok());
  LockTable copy = table;
  copy.FindMutable(1)->Remove(1);
  EXPECT_TRUE(copy.Find(1)->IsFree());
  EXPECT_FALSE(table.Find(1)->IsFree());
}

TEST(LockTableTest, CheckInvariantsAggregates) {
  LockTable table;
  ASSERT_TRUE(table.GetOrCreate(1).Request(1, kS).ok());
  ASSERT_TRUE(table.GetOrCreate(2).Request(2, kX).ok());
  EXPECT_TRUE(table.CheckInvariants().ok());
}

TEST(LockTableTest, ToStringListsResources) {
  LockTable table;
  ASSERT_TRUE(table.GetOrCreate(1).Request(1, kS).ok());
  std::string s = table.ToString();
  EXPECT_NE(s.find("R1(S)"), std::string::npos);
}

}  // namespace
}  // namespace twbg::lock
