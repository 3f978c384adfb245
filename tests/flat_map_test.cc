// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// FlatMap unit suite: lookup/insert/erase correctness, rehash behaviour,
// the slot-stability contract (values never move while their key is
// present; a reused slot reads V{}), iteration over live slots, copies of
// maps with freed slots, and determinism of the iteration order.

#include "common/flat_map.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/small_vector.h"
#include "gtest/gtest.h"

namespace twbg::common {
namespace {

TEST(FlatMapTest, EmptyMapFindsNothing) {
  FlatMap<uint32_t, int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_FALSE(map.Contains(7));
  EXPECT_FALSE(map.Erase(7));
}

TEST(FlatMapTest, InsertFindRoundTrip) {
  FlatMap<uint32_t, std::string> map;
  auto [a, inserted_a] = map.TryEmplace(1);
  EXPECT_TRUE(inserted_a);
  *a = "one";
  auto [a2, inserted_again] = map.TryEmplace(1);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*a2, "one");

  map[2] = "two";
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(2), nullptr);
  EXPECT_EQ(*map.Find(2), "two");
  EXPECT_EQ(map.Find(3), nullptr);
}

TEST(FlatMapTest, ValueAddressSurvivesOtherErasesAndInserts) {
  FlatMap<uint32_t, int> map;
  map.Reserve(64);  // no slab growth below, so no pointer may move
  std::vector<int*> addr(32);
  for (uint32_t k = 0; k < 32; ++k) {
    addr[k] = map.TryEmplace(k).first;
    *addr[k] = static_cast<int>(k * 10);
  }
  for (uint32_t k = 0; k < 32; k += 2) EXPECT_TRUE(map.Erase(k));
  for (uint32_t k = 100; k < 132; ++k) map[k] = -1;  // reuses, then appends
  for (uint32_t k = 1; k < 32; k += 2) {
    EXPECT_EQ(map.Find(k), addr[k]) << k;
    EXPECT_EQ(*addr[k], static_cast<int>(k * 10)) << k;
  }
  EXPECT_EQ(map.size(), 48u);
}

TEST(FlatMapTest, ReusedSlotReadsValueInitialised) {
  FlatMap<uint32_t, SmallVector<int, 2>> map;
  SmallVector<int, 2>& first = map[1];
  for (int i = 0; i < 10; ++i) first.push_back(i);  // spills to the heap
  const size_t grown = first.capacity();
  SmallVector<int, 2>* const slot = &first;
  EXPECT_TRUE(map.Erase(1));
  auto [reborn, inserted] = map.TryEmplace(2);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(reborn, slot);  // the freed slot was reused
  EXPECT_TRUE(reborn->empty());
  EXPECT_EQ(reborn->capacity(), grown);  // V{} move-assign keeps the buffer
  EXPECT_EQ(map.Find(1), nullptr);

  FlatMap<uint32_t, std::pair<int, std::string>> pairs;
  pairs[7] = {42, "stale"};
  EXPECT_TRUE(pairs.Erase(7));
  EXPECT_EQ(pairs[8], (std::pair<int, std::string>{}));
}

TEST(FlatMapTest, IterationVisitsExactlyTheLiveEntriesUnderChurn) {
  FlatMap<uint32_t, uint64_t> map;
  std::map<uint32_t, uint64_t> oracle;
  Rng rng(0x51ab);
  for (int step = 0; step < 20000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBelow(300));
    if (rng.NextBelow(2) == 0) {
      map[key] = static_cast<uint64_t>(step);
      oracle[key] = static_cast<uint64_t>(step);
    } else {
      EXPECT_EQ(map.Erase(key), oracle.erase(key) > 0);
    }
    if (step % 97 != 0) continue;
    std::map<uint32_t, uint64_t> seen;
    size_t visited = 0;
    for (const auto& entry : map) {
      ++visited;
      seen[entry.key] = entry.value;
    }
    ASSERT_EQ(visited, oracle.size()) << "step " << step;
    ASSERT_EQ(seen, oracle) << "step " << step;
  }
}

TEST(FlatMapTest, CopyWithFreedSlotsIsIndependentAndEqual) {
  FlatMap<uint32_t, std::string> map;
  for (uint32_t k = 0; k < 40; ++k) map[k] = std::to_string(k);
  for (uint32_t k = 0; k < 40; k += 3) map.Erase(k);  // leaves freed slots
  FlatMap<uint32_t, std::string> copy = map;
  const auto contents = [](const FlatMap<uint32_t, std::string>& m) {
    std::map<uint32_t, std::string> out;
    for (const auto& entry : m) out[entry.key] = entry.value;
    return out;
  };
  const std::map<uint32_t, std::string> before = contents(map);
  EXPECT_EQ(contents(copy), before);
  EXPECT_EQ(copy.size(), map.size());

  copy[100] = "new";  // lands in one of the copied freed slots
  copy.Erase(1);
  *copy.Find(2) = "changed";
  EXPECT_EQ(contents(map), before);
  EXPECT_EQ(map.Find(100), nullptr);

  map[200] = "other";
  map.Erase(4);
  EXPECT_EQ(copy.Find(200), nullptr);
  ASSERT_NE(copy.Find(4), nullptr);
  EXPECT_EQ(*copy.Find(4), "4");
  EXPECT_EQ(*copy.Find(2), "changed");

  FlatMap<uint32_t, std::string> moved = std::move(copy);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.Find(2), nullptr);
  EXPECT_EQ(*moved.Find(100), "new");
}

TEST(FlatMapTest, RehashPreservesAllEntries) {
  FlatMap<uint32_t, uint32_t> map;
  constexpr uint32_t kCount = 10000;  // forces many rehashes from 16 up
  for (uint32_t k = 0; k < kCount; ++k) map[k] = k ^ 0xabcd;
  EXPECT_EQ(map.size(), kCount);
  for (uint32_t k = 0; k < kCount; ++k) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), k ^ 0xabcd);
  }
  EXPECT_EQ(map.Find(kCount), nullptr);
}

TEST(FlatMapTest, ReserveAvoidsRehashDuringFill) {
  FlatMap<uint32_t, int> map;
  map.Reserve(1000);
  for (uint32_t k = 0; k < 1000; ++k) map[k] = 1;
  EXPECT_EQ(map.size(), 1000u);
  for (uint32_t k = 0; k < 1000; ++k) ASSERT_TRUE(map.Contains(k));
}

TEST(FlatMapTest, MixedChurnAgainstStdMap) {
  FlatMap<uint32_t, uint64_t> map;
  std::map<uint32_t, uint64_t> oracle;
  Rng rng(0xf1a7);
  for (int step = 0; step < 50000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBelow(512));
    switch (rng.NextBelow(3)) {
      case 0: {
        const uint64_t value = rng.NextU64();
        map[key] = value;
        oracle[key] = value;
        break;
      }
      case 1: {
        EXPECT_EQ(map.Erase(key), oracle.erase(key) > 0);
        break;
      }
      default: {
        const uint64_t* found = map.Find(key);
        auto it = oracle.find(key);
        if (it == oracle.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), oracle.size());
  }
  // Final sweep: identical contents.
  std::map<uint32_t, uint64_t> drained;
  for (const auto& entry : map) drained[entry.key] = entry.value;
  EXPECT_EQ(drained, oracle);
}

TEST(FlatMapTest, IterationOrderIsDeterministic) {
  // Two maps fed the identical operation sequence iterate identically —
  // the property the lock table's ordered seam and the differential
  // suites build on.
  FlatMap<uint32_t, int> a;
  FlatMap<uint32_t, int> b;
  auto feed = [](FlatMap<uint32_t, int>& m) {
    Rng rng(0xdead);
    for (int step = 0; step < 5000; ++step) {
      const uint32_t key = static_cast<uint32_t>(rng.NextBelow(256));
      if (rng.NextBelow(3) == 0) {
        m.Erase(key);
      } else {
        m[key] = step;
      }
    }
  };
  feed(a);
  feed(b);
  ASSERT_EQ(a.size(), b.size());
  auto it = b.begin();
  for (const auto& entry : a) {
    ASSERT_NE(it, b.end());
    EXPECT_EQ(entry.key, it->key);
    EXPECT_EQ(entry.value, it->value);
    ++it;
  }
  EXPECT_EQ(it, b.end());
}

TEST(FlatMapTest, CollectThenEraseDuringIteration) {
  // The documented in-loop erase pattern: collect keys first, then erase.
  FlatMap<uint32_t, int> map;
  for (uint32_t k = 0; k < 100; ++k) map[k] = static_cast<int>(k);
  std::vector<uint32_t> evens;
  for (const auto& entry : map) {
    if (entry.key % 2 == 0) evens.push_back(entry.key);
  }
  for (uint32_t k : evens) EXPECT_TRUE(map.Erase(k));
  EXPECT_EQ(map.size(), 50u);
  for (uint32_t k = 0; k < 100; ++k) {
    EXPECT_EQ(map.Contains(k), k % 2 == 1) << k;
  }
}

TEST(FlatMapTest, ClearResetsButKeepsWorking) {
  FlatMap<uint32_t, int> map;
  for (uint32_t k = 0; k < 100; ++k) map[k] = 1;
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(5), nullptr);
  map[5] = 7;
  EXPECT_EQ(*map.Find(5), 7);
}

}  // namespace
}  // namespace twbg::common
