// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Experiment C1/B2 micro-benchmarks: detection-pass cost versus graph
// size and cycle structure, our walk versus the baselines, and the
// enumeration blow-up on the upgrade-crowd scenario.

#include <benchmark/benchmark.h>

#include "baselines/acd_detector.h"
#include "baselines/jiang_detector.h"
#include "baselines/wfg_detector.h"
#include "bench/scenarios.h"
#include "core/continuous_detector.h"
#include "core/periodic_detector.h"
#include "core/twbg.h"
#include "graph/johnson.h"

namespace twbg {
namespace {

// One periodic pass over an acyclic wait chain of n transactions: the
// no-deadlock steady-state cost, expected O(n + e).
void BM_PeriodicPassChain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  lock::LockManager manager;
  bench::BuildChain(manager, n);
  core::CostTable costs;
  core::PeriodicDetector detector;
  for (auto _ : state) {
    core::ResolutionReport report = detector.RunPass(manager, costs);
    benchmark::DoNotOptimize(report);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_PeriodicPassChain)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Complexity(benchmark::oN);

// Detection + resolution of one ring of length n (rebuilt every
// iteration since the pass mutates the table).
void BM_PeriodicPassRing(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  core::CostTable costs;
  core::PeriodicDetector detector;
  for (auto _ : state) {
    state.PauseTiming();
    lock::LockManager manager;
    bench::BuildRing(manager, n);
    state.ResumeTiming();
    core::ResolutionReport report = detector.RunPass(manager, costs);
    benchmark::DoNotOptimize(report);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_PeriodicPassRing)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity(benchmark::oN);

// k disjoint rings of 8: c' scales with k, total work with n + e*c'.
void BM_PeriodicPassManyRings(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  core::CostTable costs;
  core::PeriodicDetector detector;
  for (auto _ : state) {
    state.PauseTiming();
    lock::LockManager manager;
    bench::BuildRings(manager, k, 8);
    state.ResumeTiming();
    core::ResolutionReport report = detector.RunPass(manager, costs);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_PeriodicPassManyRings)->Arg(4)->Arg(16)->Arg(64);

// The baselines on the same acyclic chain.
void BM_WfgPassChain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  lock::LockManager manager;
  bench::BuildChain(manager, n);
  core::CostTable costs;
  baselines::WfgStrategy wfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wfg.OnPeriodic(manager, costs));
  }
}
BENCHMARK(BM_WfgPassChain)->RangeMultiplier(4)->Range(64, 16384);

void BM_AcdPassChain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  lock::LockManager manager;
  bench::BuildChain(manager, n);
  core::CostTable costs;
  baselines::AcdStrategy acd;
  for (auto _ : state) {
    benchmark::DoNotOptimize(acd.OnPeriodic(manager, costs));
  }
}
BENCHMARK(BM_AcdPassChain)->RangeMultiplier(4)->Range(64, 16384);

// Upgrade crowd of k: our walk resolves in <= k-1 cycles...
void BM_HwTwbgUpgradeCrowd(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  core::CostTable costs;
  core::PeriodicDetector detector;
  for (auto _ : state) {
    state.PauseTiming();
    lock::LockManager manager;
    bench::BuildUpgradeCrowd(manager, k);
    state.ResumeTiming();
    core::ResolutionReport report = detector.RunPass(manager, costs);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_HwTwbgUpgradeCrowd)->DenseRange(4, 12, 2);

// ...while full elementary-circuit enumeration explodes (capped).
void BM_JohnsonUpgradeCrowd(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  lock::LockManager manager;
  bench::BuildUpgradeCrowd(manager, k);
  core::HwTwbg graph = core::HwTwbg::Build(manager.table());
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.ElementaryCycles(1u << 22));
  }
}
// k = 12 alone costs ~13 s per iteration (1.1M+ circuits); exp_complexity
// covers it with a cap, so stop at 10 here.
BENCHMARK(BM_JohnsonUpgradeCrowd)->DenseRange(4, 10, 2);

// Jiang's on-block enumeration over the same crowd (path cap applies).
void BM_JiangUpgradeCrowd(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  core::CostTable costs;
  for (auto _ : state) {
    state.PauseTiming();
    lock::LockManager manager;
    bench::BuildUpgradeCrowd(manager, k);
    baselines::JiangStrategy jiang(1u << 22);
    state.ResumeTiming();
    benchmark::DoNotOptimize(jiang.OnBlock(manager, costs, 1));
  }
}
BENCHMARK(BM_JiangUpgradeCrowd)->DenseRange(4, 10, 2);

// Continuous detection cost per block on a queue tail of length q.
void BM_ContinuousOnBlockQueueTail(benchmark::State& state) {
  const size_t q = static_cast<size_t>(state.range(0));
  lock::LockManager manager;
  bench::BuildQueueTail(manager, q);
  core::CostTable costs;
  core::ContinuousDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.OnBlock(manager, costs,
                         static_cast<lock::TransactionId>(q + 1)));
  }
}
BENCHMARK(BM_ContinuousOnBlockQueueTail)->Arg(16)->Arg(256)->Arg(4096);

// Scoped vs full continuous detection on a partitioned load: `clusters`
// disjoint 2-transaction conflicts plus the probe's own small cluster.
// The scoped build (COMPSAC companion optimization) should be O(region)
// while the full build pays for the whole table.
void BM_ContinuousScoped(benchmark::State& state) {
  const size_t clusters = static_cast<size_t>(state.range(0));
  const bool scoped = state.range(1) != 0;
  lock::LockManager manager;
  for (uint32_t i = 0; i < clusters; ++i) {
    (void)manager.Acquire(2 * i + 1, i + 1, lock::LockMode::kX);
    (void)manager.Acquire(2 * i + 2, i + 1, lock::LockMode::kS);
  }
  core::CostTable costs;
  core::DetectorOptions options;
  options.scoped_continuous_build = scoped;
  core::ContinuousDetector detector(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.OnBlock(manager, costs, 2));
  }
  state.SetLabel(scoped ? "scoped" : "full");
}
BENCHMARK(BM_ContinuousScoped)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({8192, 0})
    ->Args({8192, 1});

// Steady-state periodic pass: a large mostly-idle table where only `m`
// of `n` resources mutated since the previous pass.  incremental=1 uses
// the GraphBuilder edge cache (pays O(edges of m resources) + assembly);
// incremental=0 recomputes every ECR from scratch.  Mutations happen
// outside the timed region — the pass itself is what's measured.
void BM_SteadyStatePass(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t m = static_cast<size_t>(state.range(1));
  const bool incremental = state.range(2) != 0;
  lock::LockManager manager;
  bench::SteadyState steady =
      bench::BuildSteadyState({&manager}, n, /*bulk=*/16);
  core::DetectorOptions options;
  options.incremental_build = incremental;
  core::PeriodicDetector detector(options);
  core::CostTable costs;
  detector.RunPass(manager, costs);  // warm the cache
  size_t cursor = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < m; ++i) {
      bench::MutateSteadyState(
          manager, steady, static_cast<lock::ResourceId>(cursor % n + 1));
      ++cursor;
    }
    state.ResumeTiming();
    core::ResolutionReport report = detector.RunPass(manager, costs);
    benchmark::DoNotOptimize(report);
  }
  state.SetLabel(incremental ? "incremental" : "scratch");
}
BENCHMARK(BM_SteadyStatePass)
    ->Args({1024, 16, 1})
    ->Args({1024, 16, 0})
    ->Args({10000, 100, 1})
    ->Args({10000, 100, 0});

// Graph construction alone (Step 1): H/W-TWBG build on a chain.
void BM_BuildHwTwbg(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  lock::LockManager manager;
  bench::BuildChain(manager, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::HwTwbg::Build(manager.table()));
  }
}
BENCHMARK(BM_BuildHwTwbg)->RangeMultiplier(4)->Range(64, 16384);

}  // namespace
}  // namespace twbg

BENCHMARK_MAIN();
