// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Sustained lock-table throughput — the acceptance run for the
// cache-friendly substrate (flat hash tables, pooled queue entries, the
// uncontended fast path; see docs/PERFORMANCE.md, "Memory layout & the
// uncontended fast path").
//
// The driver is open-loop over *operations*, not transactions: a fixed
// working set of open transactions each follows a private plan of
// acquire/convert ops drawn from a Zipf(theta) resource popularity
// distribution, committing (and being replaced) when the plan is done.
// A blocked transaction stops issuing (Axiom 1) and the driver moves on;
// a periodic detection pass every kOpsPerPass operations resolves any
// deadlocks the plans manufacture.  Three quantities are measured over
// the steady-state window:
//
//   * ops/sec       — completed Acquire + Release operations per second;
//   * allocations/op — global operator new invocations per operation,
//     via the counting-allocator hook defined in this binary.  This is
//     the machine-independent gate: the flat substrate pins it near zero
//     in steady state (the table recycles ResourceStates and their
//     holder/queue capacity), where the node-based containers paid one
//     or more allocations on nearly every acquire/release;
//   * p99 acquire latency — sampled every kLatencySampleEvery ops to
//     keep timer overhead out of the throughput number.
//
// Cells sweep txn count x Zipf theta for the sequential
// TransactionManager, plus shard count for ConcurrentLockService (one
// client thread per 16 txns, detector thread off — the lock path itself
// is the subject; detection cost is bench_steady_state's subject and
// pauses are bench_pauseless's).  theta < 0 denotes the *uncontended*
// cell: every transaction owns a private resource range, so no request
// ever blocks and the run measures the raw acquire/release path.  CI's
// perf-smoke job gates the uncontended sequential cell on ops/sec and
// every steady-state cell on allocations/op (see .github/workflows).
//
// The uptime record asks whether a transaction costs more the longer the
// service has run: one client thread runs Begin / AcquireAsync / State /
// Commit for kUptimeTxns transactions against twbg-serverd's default
// service (4 shards, kPeriodic, 2 ms detector thread), and the JSON keeps
// the mean microseconds per transaction of every kUptimeInterval of them.
// CI fails when the last interval costs more than 3x the first.
//
// Usage: bench_throughput [ops_per_cell] [out.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "txn/concurrent_service.h"
#include "txn/transaction_manager.h"

// ---------------------------------------------------------------------------
// Counting-allocator hook: every operator new in this binary bumps a
// relaxed atomic.  Replacing the global operators is binary-local, so
// the library itself stays untouched; the same hook pattern backs the
// alloc-free capture assertions in tests/capture_alloc_test.cc.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

using namespace twbg;

namespace {

// Detection cadence: frequent enough that contended cells never wedge on
// an unresolved deadlock, rare enough that the pass cost stays a small
// fraction of the measured window.
constexpr size_t kOpsPerPass = 4096;
constexpr size_t kLatencySampleEvery = 64;
constexpr size_t kLocksPerTxn = 8;
constexpr double kConvertFraction = 0.25;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct CellResult {
  std::string engine;  // "sequential" | "concurrent"
  size_t txns = 0;
  double theta = 0;  // < 0: uncontended (private resource ranges)
  size_t shards = 0;
  size_t threads = 0;
  size_t ops = 0;
  size_t committed = 0;
  size_t aborted = 0;
  double ops_per_sec = 0;
  double allocs_per_op = 0;
  uint64_t acquire_p50_ns = 0;
  uint64_t acquire_p99_ns = 0;

  bool uncontended() const { return theta < 0; }
};

uint64_t Percentile(std::vector<uint64_t>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

// One transaction's scripted life: acquire kLocksPerTxn locks (a mix of
// IS/IX/S/X), convert a fraction of them upward, then commit.
struct Plan {
  std::vector<std::pair<lock::ResourceId, lock::LockMode>> steps;
  size_t next = 0;
};

// Picks the rid for plan step `step` of a transaction whose private range
// starts at `base`.  Uncontended cells stride through the private range;
// contended cells sample the shared Zipf popularity distribution.
class RidSource {
 public:
  RidSource(double theta, size_t resources, uint64_t seed)
      : theta_(theta), rng_(seed) {
    if (theta >= 0) {
      zipf_ = std::make_unique<common::ZipfSampler>(resources, theta);
    }
  }

  lock::ResourceId Pick(size_t txn_slot, size_t step) {
    if (theta_ < 0) {
      return static_cast<lock::ResourceId>(1 + txn_slot * kLocksPerTxn + step);
    }
    return static_cast<lock::ResourceId>(1 + zipf_->Sample(rng_));
  }

  common::Rng& rng() { return rng_; }

 private:
  double theta_;
  common::Rng rng_;
  std::unique_ptr<common::ZipfSampler> zipf_;
};

Plan MakePlan(RidSource& rids, size_t txn_slot) {
  static constexpr lock::LockMode kAcquireModes[] = {
      lock::LockMode::kIS, lock::LockMode::kIX, lock::LockMode::kS,
      lock::LockMode::kX};
  Plan plan;
  plan.steps.reserve(kLocksPerTxn + 2);
  for (size_t i = 0; i < kLocksPerTxn; ++i) {
    const lock::LockMode mode = kAcquireModes[rids.rng().NextBelow(4)];
    plan.steps.emplace_back(rids.Pick(txn_slot, i), mode);
  }
  // Convert a fraction of the acquired locks upward (re-request X on an
  // already-touched rid): exercises the conversion/UPR path.
  for (size_t i = 0; i < kLocksPerTxn; ++i) {
    if (rids.rng().NextBernoulli(kConvertFraction)) {
      plan.steps.emplace_back(plan.steps[i].first, lock::LockMode::kX);
    }
  }
  return plan;
}

// --------------------------------------------------------------------------
// Sequential engine cell.
// --------------------------------------------------------------------------

CellResult RunSequential(size_t txns, double theta, size_t resources,
                         size_t total_ops) {
  CellResult cell;
  cell.engine = "sequential";
  cell.txns = txns;
  cell.theta = theta;
  cell.threads = 1;

  txn::TransactionManagerOptions options;
  options.detection_mode = txn::DetectionMode::kPeriodic;
  auto manager = txn::TransactionManager::Create(options).value();

  RidSource rids(theta, resources, 0x7157c0de ^ txns);
  struct Slot {
    lock::TransactionId tid = 0;
    Plan plan;
  };
  std::vector<Slot> slots(txns);
  for (size_t s = 0; s < slots.size(); ++s) {
    slots[s].tid = *manager->Begin();
    slots[s].plan = MakePlan(rids, s);
  }

  std::vector<uint64_t> latencies;
  latencies.reserve(total_ops / kLatencySampleEvery + 1);

  // Warm-up: one full pass over every slot populates the table (and, on
  // the flat substrate, its pooled capacity) before the measured window.
  const size_t warmup_ops = txns * kLocksPerTxn;
  size_t ops = 0;
  uint64_t t_start = 0;
  uint64_t allocs_start = 0;
  bool measuring = false;

  const size_t budget = total_ops + warmup_ops;
  while (ops < budget) {
    if (!measuring && ops >= warmup_ops) {
      measuring = true;
      t_start = NowNs();
      allocs_start = g_allocations.load(std::memory_order_relaxed);
      cell.committed = 0;
      cell.aborted = 0;
    }
    bool progressed = false;
    for (Slot& slot : slots) {
      Result<txn::TxnState> state = manager->State(slot.tid);
      if (!state.ok() || *state == txn::TxnState::kAborted) {
        ++cell.aborted;
        slot.tid = *manager->Begin();
        slot.plan = MakePlan(rids, &slot - slots.data());
        progressed = true;
        continue;
      }
      if (*state == txn::TxnState::kBlocked) continue;
      if (slot.plan.next >= slot.plan.steps.size()) {
        if (manager->Commit(slot.tid).ok()) ++cell.committed;
        ++ops;  // the release is the operation
        slot.tid = *manager->Begin();
        slot.plan = MakePlan(rids, &slot - slots.data());
        progressed = true;
        continue;
      }
      const auto& [rid, mode] = slot.plan.steps[slot.plan.next++];
      const bool sample = measuring && ops % kLatencySampleEvery == 0;
      const uint64_t t0 = sample ? NowNs() : 0;
      Status status = manager->Acquire(slot.tid, rid, mode);
      if (sample) latencies.push_back(NowNs() - t0);
      ++ops;
      progressed = true;
      (void)status;  // kWouldBlock handled via State() next round
    }
    if (!progressed || ops % kOpsPerPass < txns) {
      manager->RunDetection();
    }
  }
  const uint64_t elapsed = NowNs() - t_start;
  const uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_start;
  cell.ops = total_ops;
  cell.ops_per_sec =
      elapsed == 0 ? 0 : 1e9 * static_cast<double>(total_ops) / elapsed;
  cell.allocs_per_op = static_cast<double>(allocs) / total_ops;
  cell.acquire_p50_ns = Percentile(latencies, 0.50);
  cell.acquire_p99_ns = Percentile(latencies, 0.99);
  return cell;
}

// --------------------------------------------------------------------------
// Concurrent service cell: real client threads against the sharded
// periodic engine, detection driven by the clients (no detector thread —
// keeps the cell deterministic in what it measures).
// --------------------------------------------------------------------------

CellResult RunConcurrent(size_t txns, double theta, size_t resources,
                         size_t shards, size_t total_ops) {
  CellResult cell;
  cell.engine = "concurrent";
  cell.txns = txns;
  cell.theta = theta;
  cell.shards = shards;
  const size_t threads = std::max<size_t>(2, std::min<size_t>(8, txns / 16));
  cell.threads = threads;

  txn::ConcurrentServiceOptions options;
  options.num_shards = shards;
  options.detection_mode = txn::DetectionMode::kPeriodic;
  // detection_period stays 0: no detector thread, the driver pumps
  // RunDetectionPass itself so every cell measures the same pass load.
  auto service = txn::ConcurrentLockService::Create(options).value();

  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::atomic<size_t> done_workers{0};

  const size_t per_thread_txns = txns / threads;
  std::vector<std::vector<uint64_t>> latencies(threads);

  auto worker = [&](size_t worker_index) {
    RidSource rids(theta, resources,
                   0xbadc0ffee ^ (worker_index * 7919) ^ txns);
    std::vector<uint64_t>& lat = latencies[worker_index];
    size_t local_ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const lock::TransactionId tid = *service->Begin();
      const size_t slot = worker_index * per_thread_txns +
                          (local_ops / (kLocksPerTxn + 1)) % per_thread_txns;
      Plan plan = MakePlan(rids, slot);
      bool dead = false;
      for (const auto& [rid, mode] : plan.steps) {
        const bool sample = measuring.load(std::memory_order_relaxed) &&
                            local_ops % kLatencySampleEvery == 0;
        const uint64_t t0 = sample ? NowNs() : 0;
        Status status = service->AcquireBlocking(tid, rid, mode);
        if (sample) lat.push_back(NowNs() - t0);
        ++local_ops;
        ops.fetch_add(1, std::memory_order_relaxed);
        if (!status.ok()) {
          dead = true;
          break;
        }
        if (stop.load(std::memory_order_relaxed)) break;
      }
      if (dead) {
        (void)service->Abort(tid);
        aborted.fetch_add(1, std::memory_order_relaxed);
      } else {
        if (service->Commit(tid).ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
        ops.fetch_add(1, std::memory_order_relaxed);  // the release
      }
    }
    done_workers.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t w = 0; w < threads; ++w) pool.emplace_back(worker, w);

  // Detection pump + measurement window control on the driver thread.
  // The watchdog dumps the last pass report if workers make no progress
  // for several seconds — that distinguishes "walk finds no cycle",
  // "resolutions rejected every pass", and "victims aborted but workers
  // never wake" without a debugger.
  uint64_t last_ops = 0;
  uint64_t last_progress_ns = NowNs();
  bool dumped = false;
  auto pump = [&] {
    core::ResolutionReport report = service->RunDetectionPass();
    const uint64_t now_ops = ops.load(std::memory_order_relaxed);
    const uint64_t now_ns = NowNs();
    if (now_ops != last_ops) {
      last_ops = now_ops;
      last_progress_ns = now_ns;
    } else if (now_ns - last_progress_ns > 5'000'000'000ULL) {
      last_progress_ns = now_ns;
      std::fprintf(stderr,
                   "bench_throughput STALL shards=%zu theta=%.2f ops=%llu "
                   "pass{txns=%zu edges=%zu cycles=%zu rejected=%zu "
                   "aborted=%zu granted=%zu repositioned=%zu steps=%zu}\n",
                   shards, theta, static_cast<unsigned long long>(now_ops),
                   report.num_transactions, report.num_edges,
                   report.cycles_detected, report.rejected,
                   report.aborted.size(), report.granted.size(),
                   report.repositioned.size(), report.steps);
      if (!dumped) {
        dumped = true;
        Status invariants = service->CheckInvariants(true);
        std::fprintf(stderr, "invariants: %s\n%s",
                     invariants.ToString().c_str(),
                     service->DebugDump().c_str());
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  const uint64_t warmup_target = txns * kLocksPerTxn;
  while (ops.load(std::memory_order_relaxed) < warmup_target) pump();
  const uint64_t ops_start = ops.load(std::memory_order_relaxed);
  const uint64_t allocs_start = g_allocations.load(std::memory_order_relaxed);
  const uint64_t commit_start = committed.load(std::memory_order_relaxed);
  const uint64_t abort_start = aborted.load(std::memory_order_relaxed);
  const uint64_t t_start = NowNs();
  measuring.store(true, std::memory_order_relaxed);
  while (ops.load(std::memory_order_relaxed) - ops_start < total_ops) pump();
  const uint64_t elapsed = NowNs() - t_start;
  const uint64_t measured = ops.load(std::memory_order_relaxed) - ops_start;
  const uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_start;
  measuring.store(false, std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  // Workers can only observe `stop` once their pending AcquireBlocking
  // resolves; keep resolving deadlocks until every worker has exited.
  while (done_workers.load(std::memory_order_relaxed) < threads) pump();
  for (std::thread& t : pool) t.join();

  cell.ops = measured;
  cell.committed = committed.load() - commit_start;
  cell.aborted = aborted.load() - abort_start;
  cell.ops_per_sec =
      elapsed == 0 ? 0 : 1e9 * static_cast<double>(measured) / elapsed;
  cell.allocs_per_op =
      measured == 0 ? 0 : static_cast<double>(allocs) / measured;
  std::vector<uint64_t> merged;
  for (std::vector<uint64_t>& lat : latencies) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  cell.acquire_p50_ns = Percentile(merged, 0.50);
  cell.acquire_p99_ns = Percentile(merged, 0.99);
  return cell;
}

// --------------------------------------------------------------------------
// Uptime record: per-transaction cost against the number of transactions
// the service has begun.
// --------------------------------------------------------------------------

constexpr size_t kUptimeTxns = 2'000'000;
constexpr size_t kUptimeInterval = 250'000;
constexpr size_t kUptimeShards = 4;
constexpr std::chrono::microseconds kUptimePeriod{2000};
constexpr size_t kUptimeResources = 1024;

// Mean microseconds per transaction of each kUptimeInterval-transaction
// interval, in order.
std::vector<double> RunUptime() {
  txn::ConcurrentServiceOptions options;
  options.num_shards = kUptimeShards;
  options.detection_mode = txn::DetectionMode::kPeriodic;
  options.detection_period = kUptimePeriod;
  auto service = txn::ConcurrentLockService::Create(options).value();
  std::vector<double> us_per_txn;
  uint64_t interval_start = NowNs();
  for (size_t i = 1; i <= kUptimeTxns; ++i) {
    const lock::TransactionId tid = *service->Begin();
    const auto rid = static_cast<lock::ResourceId>(1 + i % kUptimeResources);
    const Result<lock::RequestOutcome> outcome =
        service->AcquireAsync(tid, rid, lock::LockMode::kX);
    TWBG_CHECK(outcome.ok() && *outcome == lock::RequestOutcome::kGranted);
    TWBG_CHECK(*service->State(tid) == txn::TxnState::kActive);
    TWBG_CHECK(service->Commit(tid).ok());
    if (i % kUptimeInterval == 0) {
      const uint64_t now = NowNs();
      us_per_txn.push_back(static_cast<double>(now - interval_start) / 1e3 /
                           static_cast<double>(kUptimeInterval));
      interval_start = now;
    }
  }
  return us_per_txn;
}

void PrintCell(const CellResult& cell) {
  std::printf(
      "  %-10s txns=%-5zu theta=%-4s shards=%-2zu threads=%zu "
      "%12.0f ops/s  %6.3f allocs/op  acquire p50=%llu p99=%llu ns  "
      "(%zu committed, %zu aborted)\n",
      cell.engine.c_str(), cell.txns,
      cell.uncontended() ? "none" : std::to_string(cell.theta)
                                        .substr(0, 4)
                                        .c_str(),
      cell.shards, cell.threads, cell.ops_per_sec, cell.allocs_per_op,
      static_cast<unsigned long long>(cell.acquire_p50_ns),
      static_cast<unsigned long long>(cell.acquire_p99_ns), cell.committed,
      cell.aborted);
}

}  // namespace

int main(int argc, char** argv) {
  size_t ops_per_cell = 400000;
  const char* out_path = "BENCH_throughput.json";
  if (argc > 1) ops_per_cell = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) out_path = argv[2];

  std::vector<CellResult> cells;

  // Sequential sweep: txn count x theta (theta < 0 = uncontended).
  std::printf("sequential engine (%zu ops/cell):\n", ops_per_cell);
  for (size_t txns : {64, 1024}) {
    for (double theta : {-1.0, 0.6, 0.9}) {
      // Contended cells draw from a shared range sized to the working
      // set; uncontended cells use private strided ranges.
      const size_t resources = txns * kLocksPerTxn;
      CellResult cell = RunSequential(txns, theta, resources, ops_per_cell);
      PrintCell(cell);
      cells.push_back(cell);
    }
  }

  // Concurrent sweep: shards x theta at a fixed txn count.
  std::printf("concurrent service (%zu ops/cell):\n", ops_per_cell);
  for (size_t shards : {1, 8}) {
    for (double theta : {-1.0, 0.9}) {
      const size_t txns = 128;
      const size_t resources = txns * kLocksPerTxn;
      CellResult cell =
          RunConcurrent(txns, theta, resources, shards, ops_per_cell);
      PrintCell(cell);
      cells.push_back(cell);
    }
  }

  std::printf("uptime (%zu transactions, 1 client, %zu shards, %lld us "
              "detector):\n  us/txn per %zu:",
              kUptimeTxns, kUptimeShards,
              static_cast<long long>(kUptimePeriod.count()), kUptimeInterval);
  const std::vector<double> uptime = RunUptime();
  for (double us : uptime) std::printf(" %.2f", us);
  std::printf("\n");

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"lock-table throughput\",\n");
  std::fprintf(out, "  \"ops_per_cell\": %zu,\n", ops_per_cell);
  std::fprintf(out, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(
        out,
        "    {\"engine\": \"%s\", \"txns\": %zu, \"theta\": %s, "
        "\"shards\": %zu, \"threads\": %zu, \"ops\": %zu, "
        "\"committed\": %zu, \"aborted\": %zu, \"ops_per_sec\": %.0f, "
        "\"allocs_per_op\": %.4f, \"acquire_p50_ns\": %llu, "
        "\"acquire_p99_ns\": %llu, \"uncontended\": %s}%s\n",
        c.engine.c_str(), c.txns,
        c.uncontended() ? "null" : std::to_string(c.theta).c_str(), c.shards,
        c.threads, c.ops, c.committed, c.aborted, c.ops_per_sec,
        c.allocs_per_op, static_cast<unsigned long long>(c.acquire_p50_ns),
        static_cast<unsigned long long>(c.acquire_p99_ns),
        c.uncontended() ? "true" : "false",
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"uptime\": {\"transactions\": %zu, \"interval\": %zu, "
               "\"shards\": %zu, \"detection_period_us\": %lld, "
               "\"us_per_txn\": [",
               kUptimeTxns, kUptimeInterval, kUptimeShards,
               static_cast<long long>(kUptimePeriod.count()));
  for (size_t i = 0; i < uptime.size(); ++i) {
    std::fprintf(out, "%s%.3f", i == 0 ? "" : ", ", uptime[i]);
  }
  std::fprintf(out, "]}\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
