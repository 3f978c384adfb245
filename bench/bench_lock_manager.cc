// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Experiment M1: lock manager micro-benchmarks — the substrate cost the
// detection algorithms sit on (grants, FIFO queueing, conversions with UPR
// repositioning, release cascades), the hash-map churn under every lock
// and release, and one wide_uniform-shaped transaction lifecycle across
// four lock managers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "common/flat_map.h"
#include "common/macros.h"
#include "common/rng.h"
#include "lock/lock_manager.h"

namespace twbg {
namespace {

using lock::LockManager;
using lock::LockMode;

// Grant + full release of a single exclusive lock.
void BM_AcquireReleaseUncontended(benchmark::State& state) {
  LockManager manager;
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.Acquire(1, 1, LockMode::kX));
    benchmark::DoNotOptimize(manager.ReleaseAll(1));
  }
}
BENCHMARK(BM_AcquireReleaseUncontended);

// N transactions sharing one resource in IS (holder list growth).
void BM_SharedGrants(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    LockManager manager;
    for (size_t i = 1; i <= n; ++i) {
      benchmark::DoNotOptimize(
          manager.Acquire(static_cast<lock::TransactionId>(i), 1,
                          LockMode::kIS));
    }
    state.PauseTiming();
    for (size_t i = 1; i <= n; ++i) {
      manager.ReleaseAll(static_cast<lock::TransactionId>(i));
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SharedGrants)->Arg(4)->Arg(16)->Arg(64);

// FIFO queue growth behind an X holder.
void BM_QueueAppend(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    LockManager manager;
    benchmark::DoNotOptimize(manager.Acquire(1, 1, LockMode::kX));
    for (size_t i = 2; i <= n + 1; ++i) {
      benchmark::DoNotOptimize(
          manager.Acquire(static_cast<lock::TransactionId>(i), 1,
                          LockMode::kS));
    }
    state.PauseTiming();
    for (size_t i = 1; i <= n + 1; ++i) {
      manager.ReleaseAll(static_cast<lock::TransactionId>(i));
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_QueueAppend)->Arg(8)->Arg(64)->Arg(256);

// Lock conversion granted in place (IS -> IX among IS friends).
void BM_ConversionGranted(benchmark::State& state) {
  LockManager manager;
  benchmark::DoNotOptimize(manager.Acquire(2, 1, LockMode::kIS));
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.Acquire(1, 1, LockMode::kIS));
    benchmark::DoNotOptimize(manager.Acquire(1, 1, LockMode::kIX));
    state.PauseTiming();
    manager.ReleaseAll(1);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ConversionGranted);

// Blocked conversion: UPR repositioning among n blocked upgraders.
void BM_ConversionBlockedUpr(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    LockManager manager;
    for (size_t i = 1; i <= n; ++i) {
      benchmark::DoNotOptimize(
          manager.Acquire(static_cast<lock::TransactionId>(i), 1,
                          LockMode::kIS));
    }
    for (size_t i = 1; i <= n; ++i) {
      benchmark::DoNotOptimize(
          manager.Acquire(static_cast<lock::TransactionId>(i), 1,
                          LockMode::kX));
    }
    state.PauseTiming();
    for (size_t i = 1; i <= n; ++i) {
      manager.ReleaseAll(static_cast<lock::TransactionId>(i));
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ConversionBlockedUpr)->Arg(4)->Arg(16)->Arg(64);

// Release that cascades grants down a queue of compatible waiters.
void BM_ReleaseCascade(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    LockManager manager;
    benchmark::DoNotOptimize(manager.Acquire(1, 1, LockMode::kX));
    for (size_t i = 2; i <= n + 1; ++i) {
      benchmark::DoNotOptimize(
          manager.Acquire(static_cast<lock::TransactionId>(i), 1,
                          LockMode::kS));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(manager.ReleaseAll(1));  // grants all n
    state.PauseTiming();
    for (size_t i = 2; i <= n + 1; ++i) {
      manager.ReleaseAll(static_cast<lock::TransactionId>(i));
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ReleaseCascade)->Arg(8)->Arg(64)->Arg(256);

// One erase and one insert on a map of `n` live keys: the oldest key goes
// and a fresh one comes, the map traffic of a release followed by a lock
// on a new resource (ResourceState), of a transaction ending and another
// beginning (TxnLockInfo), and of the cost table and caches (uint32_t).
template <typename V>
void BM_FlatMapChurn(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  common::FlatMap<uint32_t, V> map;
  for (uint32_t k = 0; k < n; ++k) map.TryEmplace(k);
  uint32_t oldest = 0;
  for (auto _ : state) {
    map.Erase(oldest);
    benchmark::DoNotOptimize(map.TryEmplace(oldest + n).first);
    ++oldest;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_FlatMapChurn, uint32_t)->Arg(16)->Arg(32)->Arg(512);
BENCHMARK_TEMPLATE(BM_FlatMapChurn, lock::ResourceState)
    ->Arg(16)
    ->Arg(32)
    ->Arg(512);
BENCHMARK_TEMPLATE(BM_FlatMapChurn, lock::TxnLockInfo)
    ->Arg(16)
    ->Arg(32)
    ->Arg(512);

// A wide_uniform-shaped transaction as the sharded service runs it: 8
// locks on uniform keys over 4 lock managers (shard = rid % 4), 90% S and
// 10% X, then ReleaseOn for each rid in ascending order and Forget on
// every manager it touched.  Sixteen transactions are live at a time, like
// the workload's 16 sessions; no two of them share a key, so nothing
// blocks.  Items are locks: time per item is the lifecycle cost per lock.
void BM_WideUniformLifecycle(benchmark::State& state) {
  constexpr size_t kShards = 4;
  constexpr size_t kLocks = 8;
  constexpr size_t kLive = 16;
  constexpr size_t kShapes = 1024;
  common::Rng rng(7);
  std::set<lock::ResourceId> used;
  std::vector<std::array<lock::ResourceId, kLocks>> shapes(kShapes);
  for (auto& rids : shapes) {
    for (lock::ResourceId& rid : rids) {
      do {
        rid = static_cast<lock::ResourceId>(1 + rng.NextBelow(1u << 22));
      } while (!used.insert(rid).second);
    }
    std::sort(rids.begin(), rids.end());
  }
  std::array<LockManager, kShards> shards;
  const auto begin = [&](size_t shape, lock::TransactionId tid) {
    for (lock::ResourceId rid : shapes[shape]) {
      const LockMode mode = rid % 10 == 0 ? LockMode::kX : LockMode::kS;
      Result<lock::RequestOutcome> outcome =
          shards[rid % kShards].Acquire(tid, rid, mode);
      TWBG_CHECK(outcome.ok() && *outcome == lock::RequestOutcome::kGranted);
    }
  };
  const auto commit = [&](size_t shape, lock::TransactionId tid) {
    uint32_t mask = 0;
    for (lock::ResourceId rid : shapes[shape]) {
      benchmark::DoNotOptimize(shards[rid % kShards].ReleaseOn(tid, rid));
      mask |= 1u << (rid % kShards);
    }
    for (size_t s = 0; s < kShards; ++s) {
      if ((mask & (1u << s)) != 0) shards[s].Forget(tid);
    }
  };
  lock::TransactionId next = 1;
  for (size_t shape = 0; shape < kLive; ++shape) begin(shape, next++);
  size_t oldest = 0;
  for (auto _ : state) {
    commit(oldest % kShapes, next - kLive);
    begin((oldest + kLive) % kShapes, next);
    ++next;
    ++oldest;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kLocks));
}
BENCHMARK(BM_WideUniformLifecycle);

}  // namespace
}  // namespace twbg

BENCHMARK_MAIN();
