// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Network lock-service acceptance run: one in-process twbg-serverd core
// (net::Server over a periodic-engine service with a live background
// detector) under an open-loop fleet of TCP clients.
//
// The driver sustains >= 1000 concurrently connected sessions and
// measures *acquire-to-grant* latency — the client-observed time from
// issuing Acquire to knowing the lock is held: the request round-trip
// when the grant is immediate, request + server-side Await when the
// acquire blocks.  Three ingredients stress the daemon the way
// production traffic would:
//
//   * Poisson arrivals — each driver thread schedules transactions on
//     exponential inter-arrival times instead of back-to-back, so
//     request bursts overlap across sessions (open loop: a stalled
//     transaction does not throttle the arrival process);
//   * connection churn — drivers periodically close one of their
//     connections mid-run and reconnect, exercising session teardown
//     and accept under load;
//   * slow clients — a slice of transactions holds an X lock on the hot
//     range for several milliseconds before committing, forcing real
//     server-side parked awaits for everyone behind them.
//
// Deadlocks are part of the workload (two-lock transactions on a small
// hot range); the background detection pass resolves them and a victim's
// Await reporting kDeadlockVictim counts as a completed wait, not an
// error.
//
// Results land in BENCH_service.json: sustained/peak connection counts,
// acquire-to-grant percentiles (immediate / blocked / all), op counts.
// CI's perf-smoke job gates on sustained_connections >= 1000 and on the
// acquire-to-grant p99s (see .github/workflows/ci.yml).
//
// Usage: bench_service [connections] [seconds] [out.json]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "net/server.h"
#include "net/tcp_client.h"
#include "txn/concurrent_service.h"

using namespace twbg;

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kDrivers = 8;
constexpr lock::ResourceId kHotRange = 16;
constexpr lock::ResourceId kColdRange = 4096;
// 1 in kSlowEvery transactions is a slow client (holds for kSlowHold).
constexpr uint64_t kSlowEvery = 64;
constexpr auto kSlowHold = std::chrono::milliseconds(5);
// Each driver churns one of its connections every kChurnEvery txns.
constexpr uint64_t kChurnEvery = 200;

struct Series {
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
  size_t samples = 0;
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

struct DriverResult {
  std::vector<uint64_t> immediate_ns;  // granted on the request itself
  std::vector<uint64_t> blocked_ns;    // granted after a parked Await
  uint64_t txns = 0;
  uint64_t commits = 0;
  uint64_t victims = 0;
  uint64_t churns = 0;
  uint64_t errors = 0;
};

// One driver thread: owns `count` connections, runs open-loop Poisson
// arrivals across them until `deadline`.  Signals `done` after its last
// transaction but keeps every connection open until `teardown` — so the
// sampler never sees the fleet's own shutdown as a connection dip.
void Driver(uint16_t port, size_t count, double txns_per_sec, uint64_t seed,
            Clock::time_point deadline, std::atomic<size_t>* done,
            std::atomic<bool>* teardown, DriverResult* result) {
  net::ClientOptions options;
  options.port = port;
  std::vector<std::unique_ptr<net::TcpClient>> clients;
  for (size_t i = 0; i < count; ++i) {
    auto client = net::TcpClient::Create(options);
    TWBG_CHECK(client.ok());
    clients.push_back(std::move(*client));
  }

  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> inter_arrival(txns_per_sec);
  std::uniform_int_distribution<lock::ResourceId> hot(1, kHotRange);
  std::uniform_int_distribution<lock::ResourceId> cold(kHotRange + 1,
                                                       kColdRange);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  Clock::time_point next_arrival = Clock::now();
  size_t cursor = 0;
  while (true) {
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(inter_arrival(rng)));
    if (next_arrival >= deadline) break;
    // Open loop: sleep only when ahead of the arrival process.
    std::this_thread::sleep_until(next_arrival);

    net::TcpClient* client = clients[cursor % clients.size()].get();
    ++cursor;
    ++result->txns;
    const bool slow = result->txns % kSlowEvery == 0;

    auto tid = client->Begin();
    if (!tid.ok()) {
      ++result->errors;
      continue;
    }
    bool dead = false;
    const int locks = slow ? 1 : 2;
    for (int k = 0; k < locks && !dead; ++k) {
      // Contention lives on the hot range; the cold range adds breadth.
      const bool on_hot = slow || coin(rng) < 0.25;
      const lock::ResourceId rid = on_hot ? hot(rng) : cold(rng);
      const lock::LockMode mode =
          slow || coin(rng) < 0.5 ? lock::LockMode::kX : lock::LockMode::kS;
      const Clock::time_point t0 = Clock::now();
      auto outcome = client->Acquire(*tid, rid, mode);
      if (!outcome.ok()) {
        ++result->errors;
        dead = true;
        break;
      }
      if (*outcome == lock::RequestOutcome::kBlocked) {
        Status waited = client->Await(*tid);
        const uint64_t ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        if (waited.ok()) {
          result->blocked_ns.push_back(ns);
        } else if (waited.IsDeadlockVictim()) {
          ++result->victims;  // resolved wait — the detector chose us
          dead = true;
        } else {
          ++result->errors;
          dead = true;
        }
      } else {
        result->immediate_ns.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count()));
      }
    }
    if (!dead) {
      if (slow) std::this_thread::sleep_for(kSlowHold);
      if (client->Commit(*tid).ok()) {
        ++result->commits;
      } else {
        ++result->victims;  // aborted between grant and commit
      }
    }

    if (result->txns % kChurnEvery == 0) {
      // Churn: retire the connection just used and dial a fresh one.
      const size_t victim_index = (cursor - 1) % clients.size();
      clients[victim_index].reset();
      auto fresh = net::TcpClient::Create(options);
      if (fresh.ok()) {
        clients[victim_index] = std::move(*fresh);
        ++result->churns;
      }
    }
  }

  done->fetch_add(1, std::memory_order_acq_rel);
  while (!teardown->load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Lifts RLIMIT_NOFILE towards its hard cap: >= 1000 client sockets plus
// their server-side twins live in this one process.
void RaiseFdLimit(size_t need) {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= need) return;
  limit.rlim_cur = limit.rlim_max == RLIM_INFINITY
                       ? need
                       : std::min<rlim_t>(limit.rlim_max, need);
  setrlimit(RLIMIT_NOFILE, &limit);
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
  size_t connections = 1100;
  size_t seconds = 6;
  std::string out_path = "BENCH_service.json";
  if (argc > 1) connections = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) seconds = static_cast<size_t>(std::atoll(argv[2]));
  if (argc > 3) out_path = argv[3];
  TWBG_CHECK(connections >= kDrivers && seconds >= 1);
  RaiseFdLimit(2 * connections + 256);

  txn::ConcurrentServiceOptions service_options;
  service_options.detection_mode = txn::DetectionMode::kPeriodic;
  service_options.num_shards = 8;
  service_options.detection_period = std::chrono::microseconds(1000);
  auto service = txn::ConcurrentLockService::Create(service_options);
  TWBG_CHECK(service.ok());

  net::ServerOptions server_options;
  server_options.port = 0;
  server_options.max_sessions = connections + 256;
  server_options.worker_threads = 4;
  auto server = net::Server::Create(server_options, service->get());
  TWBG_CHECK(server.ok());
  TWBG_CHECK((*server)->Start().ok());
  const uint16_t port = (*server)->port();

  const double txns_per_sec_per_driver = 400.0;
  std::printf(
      "bench_service: %zu connections, %zu drivers, %.0f txns/s/driver "
      "(Poisson), %zus on port %u\n",
      connections, kDrivers, txns_per_sec_per_driver, seconds, port);

  std::vector<DriverResult> results(kDrivers);
  std::vector<std::thread> drivers;
  std::atomic<size_t> drivers_done{0};
  std::atomic<bool> teardown{false};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(seconds);
  for (size_t d = 0; d < kDrivers; ++d) {
    const size_t share =
        connections / kDrivers + (d < connections % kDrivers ? 1 : 0);
    drivers.emplace_back(Driver, port, share, txns_per_sec_per_driver,
                         0x5eedULL + d, deadline, &drivers_done, &teardown,
                         &results[d]);
  }

  // Sample the daemon's live-session count while the fleet runs.  The
  // first samples race the drivers' connect loops, so `sustained` only
  // starts counting once the full fleet has been seen once.
  uint64_t peak_sessions = 0;
  uint64_t sustained_sessions = 0;
  bool ramped = false;
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_acquire)) {
      const uint64_t active = (*server)->stats().sessions_active;
      peak_sessions = std::max(peak_sessions, active);
      if (!ramped && active >= connections) {
        ramped = true;
        sustained_sessions = active;
      } else if (ramped) {
        sustained_sessions = std::min(sustained_sessions, active);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  // Stop sampling while every driver still holds its connections, THEN
  // let the fleet tear down.
  while (drivers_done.load(std::memory_order_acquire) < kDrivers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sampling.store(false, std::memory_order_release);
  sampler.join();
  teardown.store(true, std::memory_order_release);
  for (std::thread& driver : drivers) driver.join();

  DriverResult total;
  std::vector<uint64_t> all_ns;
  for (const DriverResult& r : results) {
    total.txns += r.txns;
    total.commits += r.commits;
    total.victims += r.victims;
    total.churns += r.churns;
    total.errors += r.errors;
    total.immediate_ns.insert(total.immediate_ns.end(),
                              r.immediate_ns.begin(), r.immediate_ns.end());
    total.blocked_ns.insert(total.blocked_ns.end(), r.blocked_ns.begin(),
                            r.blocked_ns.end());
  }
  all_ns = total.immediate_ns;
  all_ns.insert(all_ns.end(), total.blocked_ns.begin(),
                total.blocked_ns.end());
  const Series immediate = Summarize(std::move(total.immediate_ns));
  const Series blocked = Summarize(std::move(total.blocked_ns));
  const Series all = Summarize(std::move(all_ns));
  const net::ServerStats stats = (*server)->stats();

  std::printf(
      "  sessions: sustained=%llu peak=%llu total=%llu  txns=%llu "
      "commits=%llu victims=%llu churns=%llu errors=%llu\n",
      static_cast<unsigned long long>(sustained_sessions),
      static_cast<unsigned long long>(peak_sessions),
      static_cast<unsigned long long>(stats.sessions_total),
      static_cast<unsigned long long>(total.txns),
      static_cast<unsigned long long>(total.commits),
      static_cast<unsigned long long>(total.victims),
      static_cast<unsigned long long>(total.churns),
      static_cast<unsigned long long>(total.errors));
  std::printf(
      "  acquire-to-grant: immediate p50=%lluus p99=%lluus (%zu)  "
      "blocked p50=%lluus p99=%lluus (%zu)\n",
      static_cast<unsigned long long>(immediate.p50 / 1000),
      static_cast<unsigned long long>(immediate.p99 / 1000),
      immediate.samples, static_cast<unsigned long long>(blocked.p50 / 1000),
      static_cast<unsigned long long>(blocked.p99 / 1000), blocked.samples);

  // Graceful drain on the way out — the same path the daemon's SIGTERM
  // takes; leaves no live transactions behind.
  (*server)->BeginDrain();
  (*server)->Join();
  TWBG_CHECK((*service)->live_transactions() == 0);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"lock_service\",\n"
               "  \"host_cores\": %u,\n"
               "  \"connections\": %zu,\n"
               "  \"drivers\": %zu,\n"
               "  \"seconds\": %zu,\n"
               "  \"sustained_connections\": %llu,\n"
               "  \"peak_connections\": %llu,\n"
               "  \"sessions_total\": %llu,\n"
               "  \"txns\": %llu,\n"
               "  \"commits\": %llu,\n"
               "  \"victims\": %llu,\n"
               "  \"churns\": %llu,\n"
               "  \"errors\": %llu,\n",
               std::thread::hardware_concurrency(), connections, kDrivers,
               seconds, static_cast<unsigned long long>(sustained_sessions),
               static_cast<unsigned long long>(peak_sessions),
               static_cast<unsigned long long>(stats.sessions_total),
               static_cast<unsigned long long>(total.txns),
               static_cast<unsigned long long>(total.commits),
               static_cast<unsigned long long>(total.victims),
               static_cast<unsigned long long>(total.churns),
               static_cast<unsigned long long>(total.errors));
  std::fprintf(out, "  ");
  WriteSeries(out, "acquire_to_grant_immediate_ns", immediate);
  std::fprintf(out, ",\n  ");
  WriteSeries(out, "acquire_to_grant_blocked_ns", blocked);
  std::fprintf(out, ",\n  ");
  WriteSeries(out, "acquire_to_grant_all_ns", all);
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return total.errors == 0 ? 0 : 1;
}
