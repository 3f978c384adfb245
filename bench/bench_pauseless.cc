// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Pauseless-vs-stop-the-world grid — the acceptance run for the
// epoch-snapshot detection pass.  Each cell of a (table size x shards x
// threads) grid pre-pins a table of S locks to the requested size, then
// runs a fixed number of *rounds*: worker threads execute a fixed batch
// of short transactions (S locks on the pinned range plus one X on a
// tiny overflow range), quiesce, and one detection pass runs — once with
// the pauseless kEpochDelta strategy, once with kStopTheWorld.
//
// The round structure is the experiment's control: the mutation delta a
// pass observes is set by the batch size, *not* by the table size, so
// the grid isolates exactly the claim under test — a shard's publish
// pause is O(journal delta) and stays flat as the table grows.  The
// stop-the-world twin runs the whole pass under every shard lock; its
// Step 1 is incremental and edge-only, so its pause does not grow with
// the pinned table either: it is a reference point, not a foil.
// An open-loop design would tie the publish pause to the table size:
// the detect phase over a bigger sealed mirror takes longer, a longer
// pass interval accumulates a bigger delta, and the publish pause would
// grow with the table for reasons that have nothing to do with the
// publish bound.  (How detection overlaps live traffic under open-loop
// load is bench_concurrent's subject.)
//
// A warm-up pass right after pinning absorbs the initial full-table
// delta; percentiles cover the steady-state rounds only.  No event bus
// is attached (a bus serializes the service; see
// txn/concurrent_service.h).
//
// Results land in BENCH_pauseless.json: per cell, the per-shard publish
// pause percentiles, the client-visible pause percentiles
// (max(publish, apply)), the seal-to-apply detection lag, and the
// stop-the-world pause percentiles of the twin run, plus the host's core
// count and the command line that wrote the file.  CI's perf-smoke job
// gates on publish p99 at the largest table size, on p99 flatness across
// table sizes, and on lag p50 flatness: the mirrors hold only
// waiter-bearing resources, so the pinned table, which has no waiter,
// never reaches the sealed walk.
//
// Usage: bench_pauseless [rounds] [out.json]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "txn/concurrent_service.h"

using namespace twbg;

namespace {

// Transactions per round across all workers: keeps the per-round journal
// delta (and hence the expected publish pause) identical in every cell.
constexpr size_t kTxnsPerRound = 48;

struct Series {
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
  size_t samples = 0;
};

struct CellResult {
  size_t table_size = 0;
  size_t shards = 0;
  size_t threads = 0;
  size_t passes = 0;      // steady-state pauseless passes
  size_t stw_passes = 0;  // steady-state stop-the-world passes
  size_t committed = 0;
  size_t rejected = 0;  // stale commands dropped by stamp validation
  Series publish;       // per-shard publish pauses (pauseless)
  Series client;        // client-visible pauses (pauseless)
  Series lag;           // seal-to-apply detection lag (pauseless)
  Series stw;           // whole-pass pauses (stop-the-world twin)
};

Series Summarize(std::vector<uint64_t> samples) {
  Series series;
  series.samples = samples.size();
  if (samples.empty()) return series;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double p) {
    const size_t index = static_cast<size_t>(
        p * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(index, samples.size() - 1)];
  };
  series.p50 = at(0.50);
  series.p99 = at(0.99);
  series.max = samples.back();
  return series;
}

// Drops the first `skip` entries (the warm-up pass) and summarizes the
// steady-state tail.
Series SteadyState(const std::vector<uint64_t>& all, size_t skip) {
  if (all.size() <= skip) return Series{};
  return Summarize(std::vector<uint64_t>(all.begin() + skip, all.end()));
}

// One worker's share of a round: `batch` short transactions of two S
// locks on the pinned (table-sized) range plus one X lock on a tiny
// overflow range shared by all workers.  The S traffic churns every
// shard's journal; the X queue adds waiter churn.  A transaction only
// ever blocks behind another worker's X (each takes a single X, last),
// so every wait resolves by a grant and the round always drains.
void ChurnBatch(txn::ConcurrentLockService& service, uint64_t seed,
                size_t table_size, size_t batch,
                std::atomic<size_t>* committed) {
  common::Rng rng(seed);
  for (size_t i = 0; i < batch; ++i) {
    const lock::TransactionId t = *service.Begin();
    bool dead = false;
    for (int k = 0; k < 2 && !dead; ++k) {
      const lock::ResourceId rid =
          static_cast<lock::ResourceId>(1 + rng.NextBelow(table_size));
      if (service.AcquireBlocking(t, rid, lock::LockMode::kS).IsAborted()) {
        dead = true;
      }
    }
    if (!dead) {
      const lock::ResourceId rid =
          static_cast<lock::ResourceId>(table_size + 1 + rng.NextBelow(32));
      if (service.AcquireBlocking(t, rid, lock::LockMode::kX).IsAborted()) {
        dead = true;
      }
    }
    if (dead) continue;  // victim: locks already gone
    if (service.Commit(t).ok()) committed->fetch_add(1);
  }
}

// Pins the live table to `table_size` resources (a long-lived reader
// holding kS everywhere — compatible with the churn's S traffic), runs
// one warm-up pass, then `rounds` rounds of batch-churn-then-pass.
void RunOne(txn::ConcurrentLockService& service, size_t table_size,
            size_t threads, size_t rounds, uint64_t seed,
            size_t* passes_out, size_t* committed_out) {
  const lock::TransactionId pin = *service.Begin();
  for (size_t rid = 1; rid <= table_size; ++rid) {
    TWBG_CHECK(service
                   .AcquireBlocking(pin, static_cast<lock::ResourceId>(rid),
                                    lock::LockMode::kS)
                   .ok());
  }
  (void)service.RunDetectionPass();  // warm-up: absorbs the pin delta
  const uint64_t warmed = service.snapshot_epoch();

  std::atomic<size_t> committed{0};
  const size_t batch = std::max<size_t>(1, kTxnsPerRound / threads);
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<std::thread> workers;
    for (size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        ChurnBatch(service, seed * 7919 + round * 131 + w, table_size,
                   batch, &committed);
      });
    }
    for (std::thread& t : workers) t.join();
    (void)service.RunDetectionPass();
  }
  *passes_out = service.snapshot_epoch() - warmed;
  *committed_out = committed.load();
}

CellResult RunCell(size_t table_size, size_t shards, size_t threads,
                   size_t rounds) {
  CellResult cell;
  cell.table_size = table_size;
  cell.shards = shards;
  cell.threads = threads;

  {  // pauseless run
    txn::ConcurrentServiceOptions options;
    options.num_shards = shards;
    options.detection_mode = txn::DetectionMode::kPeriodic;
    options.snapshot_strategy = txn::SnapshotStrategy::kEpochDelta;
    options.detection_threads = 2;
    Result<std::unique_ptr<txn::ConcurrentLockService>> service =
        txn::ConcurrentLockService::Create(options);
    TWBG_CHECK(service.ok());
    RunOne(**service, table_size, threads, rounds, 11 + table_size,
           &cell.passes, &cell.committed);
    // Warm-up skip: one pass = `shards` publish samples, one client
    // pause, one lag sample.
    cell.publish = SteadyState((*service)->publish_pause_times_ns(), shards);
    cell.client = SteadyState((*service)->pause_times_ns(), 1);
    cell.lag = SteadyState((*service)->detection_lag_ns(), 1);
    cell.rejected = (*service)->resolutions_rejected();
  }
  {  // stop-the-world twin
    txn::ConcurrentServiceOptions options;
    options.num_shards = shards;
    options.detection_mode = txn::DetectionMode::kPeriodic;
    options.snapshot_strategy = txn::SnapshotStrategy::kStopTheWorld;
    options.detection_threads = 2;
    Result<std::unique_ptr<txn::ConcurrentLockService>> service =
        txn::ConcurrentLockService::Create(options);
    TWBG_CHECK(service.ok());
    size_t committed = 0;
    RunOne(**service, table_size, threads, rounds, 11 + table_size,
           &cell.stw_passes, &committed);
    cell.stw = SteadyState((*service)->pause_times_ns(), 1);
  }
  return cell;
}

void PrintSeries(const char* name, const Series& series) {
  std::printf("%s p50=%llu p99=%llu max=%llu (%zu samples)",
              name, static_cast<unsigned long long>(series.p50),
              static_cast<unsigned long long>(series.p99),
              static_cast<unsigned long long>(series.max), series.samples);
}

void WriteSeries(std::FILE* out, const char* name, const Series& series) {
  std::fprintf(out,
               "\"%s\": {\"p50\": %llu, \"p99\": %llu, \"max\": %llu, "
               "\"samples\": %zu}",
               name, static_cast<unsigned long long>(series.p50),
               static_cast<unsigned long long>(series.p99),
               static_cast<unsigned long long>(series.max), series.samples);
}

}  // namespace

int main(int argc, char** argv) {
  size_t rounds = 60;
  std::string out_path = "BENCH_pauseless.json";
  if (argc > 1) rounds = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) out_path = argv[2];
  TWBG_CHECK(rounds >= 2);

  const unsigned host_cores = std::thread::hardware_concurrency();
  const std::vector<size_t> table_sizes = {1024, 16384, 65536};
  const std::vector<size_t> shard_counts = {4, 16};
  const std::vector<size_t> thread_counts = {2, 4};
  std::printf("pauseless vs stop-the-world: %zu rounds x %zu txns per cell, "
              "%u hardware threads\n",
              rounds, kTxnsPerRound, host_cores);

  std::vector<CellResult> cells;
  for (size_t table_size : table_sizes) {
    for (size_t shards : shard_counts) {
      for (size_t threads : thread_counts) {
        CellResult cell = RunCell(table_size, shards, threads, rounds);
        std::printf("  table=%-6zu shards=%-3zu threads=%zu  publish ",
                    table_size, shards, threads);
        PrintSeries("", cell.publish);
        std::printf("  stw ");
        PrintSeries("", cell.stw);
        std::printf("  rejected=%zu\n", cell.rejected);
        cells.push_back(cell);
      }
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::string command = argv[0];
  for (int i = 1; i < argc; ++i) command += std::string(" ") + argv[i];
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"pauseless_detection\",\n"
               "  \"host_cores\": %u,\n"
               "  \"command\": \"%s\",\n"
               "  \"rounds\": %zu,\n"
               "  \"txns_per_round\": %zu,\n"
               "  \"cells\": [",
               host_cores, command.c_str(), rounds, kTxnsPerRound);
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    std::fprintf(out,
                 "%s\n    {\"table_size\": %zu, \"shards\": %zu, "
                 "\"threads\": %zu, \"passes\": %zu, \"stw_passes\": %zu, "
                 "\"committed\": %zu, \"rejected\": %zu,\n     ",
                 i == 0 ? "" : ",", cell.table_size, cell.shards,
                 cell.threads, cell.passes, cell.stw_passes, cell.committed,
                 cell.rejected);
    WriteSeries(out, "publish_pause_ns", cell.publish);
    std::fprintf(out, ",\n     ");
    WriteSeries(out, "client_pause_ns", cell.client);
    std::fprintf(out, ",\n     ");
    WriteSeries(out, "detection_lag_ns", cell.lag);
    std::fprintf(out, ",\n     ");
    WriteSeries(out, "stw_pause_ns", cell.stw);
    std::fprintf(out, "}");
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
