// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// daemon_tcp: closed-loop generator threads, each with one net::TcpClient
// session, against an in-process net::Server over loopback, configured
// as twbg-serverd runs by default (perfbench/README.md).

#include <sched.h>

#include <atomic>
#include <memory>
#include <thread>

#include "bench.h"
#include "net/server.h"
#include "net/tcp_client.h"
#include "txn/concurrent_service.h"

namespace perfbench {
namespace {

using twbg::Result;
using twbg::Status;
using twbg::lock::LockMode;
using twbg::lock::RequestOutcome;
using twbg::lock::TransactionId;
using twbg::net::Server;
using twbg::net::TcpClient;
using twbg::txn::ConcurrentLockService;

constexpr size_t kSessions = 4;
constexpr size_t kLocksPerTxn = 2;
constexpr uint64_t kHotKeys = 16;
constexpr uint64_t kColdKeys = 65536;
constexpr double kHotShare = 0.25;
// peak_rss_mib is read when this many transactions have committed, in
// the first two seconds of a run.  The service keeps a record of every
// transaction, so its memory grows with the work done; reading it at a
// fixed amount of work keeps a faster run from reading as a fatter one.
constexpr uint64_t kRssCommits = 1 << 14;
// Sample buffer sizing: most transactions a second one session can run.
constexpr size_t kTxnsPerSessionPerS = 1u << 15;

// The daemon as twbg-serverd starts it by default.
struct Daemon {
  std::unique_ptr<ConcurrentLockService> service;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<TcpClient>> clients;

  Status Start() {
    twbg::txn::ConcurrentServiceOptions options;
    options.detection_mode = twbg::txn::DetectionMode::kPeriodic;
    options.num_shards = 4;
    options.detection_period = std::chrono::microseconds(2000);
    auto created = ConcurrentLockService::Create(options);
    if (!created.ok()) return created.status();
    service = std::move(*created);
    auto made = Server::Create(twbg::net::ServerOptions{}, service.get());
    if (!made.ok()) return made.status();
    server = std::move(*made);
    if (Status started = server->Start(); !started.ok()) return started;
    for (size_t i = 0; i < kSessions; ++i) {
      twbg::net::ClientOptions client_options;
      client_options.port = server->port();
      auto client = TcpClient::Create(client_options);
      if (!client.ok()) return client.status();
      clients.push_back(std::move(*client));
    }
    return Status::OK();
  }

  // Drain: close the sessions, stop the server, wait for the reactor.
  void Drain() {
    clients.clear();
    if (server != nullptr) {
      server->BeginDrain();
      server->Join();
    }
  }
};

// Shared by the generators: commits so far, and the peak resident set
// when the kRssCommits-th one was acknowledged.
struct RssProbe {
  std::atomic<uint64_t> commits{0};
  double mib = 0;  // written once, by the thread of that commit
};

struct Generator {
  Generator(uint64_t seed, size_t lane, bool traced)
      : rng(seed ^ (0x9e3779b97f4a7c15ULL * (lane + 1))),
        trace(traced, static_cast<uint32_t>(lane + 1), kSessions) {}

  InputRng rng;
  Trace trace;
  // Latencies (ns) in the window, and commits by slice.
  std::vector<uint64_t> acquire, txn;
  std::vector<uint64_t> slice_commits;
  Samples blocked_grant;
  uint64_t begun = 0, commits = 0, victims = 0, acquires = 0, blocked = 0;
  uint64_t attempted = 0, failed = 0;
  std::string first_error;
  uint64_t cpu_start = 0, cpu_end = 0;
  // Call-span time in the window, for driver.busy_share.
  uint64_t call_ns = 0;
};

// One session's closed loop: each transaction starts when the last ended.
class ClosedLoop {
 public:
  ClosedLoop(TcpClient* client, Generator* g, RssProbe* rss,
             uint64_t window_start, uint64_t window_end, uint64_t slice_ns)
      : client_(client),
        g_(g),
        rss_(rss),
        window_start_(window_start),
        window_end_(window_end),
        slice_ns_(slice_ns) {}

  void Loop() {
    bool measuring = false;
    while (true) {
      const uint64_t now = NowNs();
      if (!measuring && now >= window_start_) {
        measuring = true;
        g_->cpu_start = ThreadCpuNs();
      }
      if (now >= window_end_) break;
      Transaction(measuring);
    }
    g_->cpu_end = ThreadCpuNs();
  }

 private:
  // A call counts when it lies wholly in the window.
  bool InWindow(uint64_t t0, uint64_t t1) const {
    return t0 >= window_start_ && t1 < window_end_;
  }

  void Call(SpanKind kind, uint64_t parent, uint64_t t0, uint64_t t1) {
    g_->attempted++;
    if (!InWindow(t0, t1)) return;
    g_->call_ns += t1 - t0;
    if (g_->trace.on()) g_->trace.Call(kind, parent, t0, t1);
  }
  void Txn(uint64_t id, uint64_t start, uint64_t t1) {
    if (g_->trace.on() && InWindow(start, t1)) g_->trace.Txn(id, start, t1);
  }

  void Error(const char* call, const Status& status) {
    if (g_->failed++ == 0) g_->first_error = std::string(call) + ": " + status.ToString();
  }

  void Transaction(bool measuring) {
    const uint64_t txn_id = g_->trace.NewId();
    if (g_->trace.on()) {
      const uint64_t t0 = NowNs();
      Status pinged = client_->Ping();
      Call(SpanKind::kPing, txn_id, t0, NowNs());
      if (!pinged.ok()) return Error("Ping", pinged);
    }
    // Inputs first, so the stream does not depend on outcomes.
    uint64_t keys[kLocksPerTxn];
    LockMode modes[kLocksPerTxn];
    for (size_t i = 0; i < kLocksPerTxn; ++i) {
      keys[i] = g_->rng.Unit() < kHotShare
                    ? g_->rng.Below(kHotKeys)
                    : kHotKeys + g_->rng.Below(kColdKeys);
      modes[i] = (g_->rng.Next() & 1) ? LockMode::kX : LockMode::kS;
    }
    const uint64_t start = NowNs();
    Result<TransactionId> tid = client_->Begin();
    uint64_t t1 = NowNs();
    Call(SpanKind::kBegin, txn_id, start, t1);
    if (!tid.ok()) return Error("Begin", tid.status());
    if (measuring) g_->begun++;
    for (size_t i = 0; i < kLocksPerTxn; ++i) {
      const uint64_t t0 = NowNs();
      Result<RequestOutcome> outcome = client_->Acquire(
          *tid, static_cast<uint32_t>(keys[i]), modes[i]);
      t1 = NowNs();
      Call(SpanKind::kAcquire, txn_id, t0, t1);
      if (!outcome.ok()) return Error("Acquire", outcome.status());
      if (measuring) g_->acquires++;
      if (*outcome == RequestOutcome::kBlocked) {
        if (measuring) g_->blocked++;
        const uint64_t a0 = NowNs();
        Status waited = client_->Await(*tid);
        t1 = NowNs();
        Call(SpanKind::kAwait, txn_id, a0, t1);
        if (waited.IsDeadlockVictim()) {
          if (measuring) g_->victims++;
          Txn(txn_id, start, t1);
          return;
        }
        if (!waited.ok()) return Error("Await", waited);
        if (InWindow(t0, t1)) g_->blocked_grant.Add(t1 - t0);
      }
      if (InWindow(t0, t1)) g_->acquire.push_back(t1 - t0);
    }
    const uint64_t c0 = NowNs();
    Status committed = client_->Commit(*tid);
    t1 = NowNs();
    Call(SpanKind::kCommit, txn_id, c0, t1);
    if (!committed.ok()) return Error("Commit", committed);
    if (rss_->commits.fetch_add(1) + 1 == kRssCommits) rss_->mib = PeakRssMib();
    if (t1 < window_end_ && t1 >= window_start_) {
      g_->commits++;
      g_->slice_commits[(t1 - window_start_) / slice_ns_]++;
    }
    if (InWindow(start, t1)) g_->txn.push_back(t1 - start);
    Txn(txn_id, start, t1);
  }

  TcpClient* client_;
  Generator* g_;
  RssProbe* rss_;
  uint64_t window_start_, window_end_, slice_ns_;
};

// Pins the calling thread, and every thread it starts later, to the
// highest-numbered CPU it may use.  On one CPU every hand-off between a
// client, the reactor and a worker is a context switch on a running core;
// spread over the cores of a shared virtual machine, each hand-off waits
// for the host to wake an idle virtual CPU, which varies several-fold with
// the host's load.
bool PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

}  // namespace

Report RunDaemon(const Config& config) {
  Report report;
  if (!PinToOneCpu()) {
    report.Fail("cannot pin the process to one CPU");
    return report;
  }

  // Set-up, timed kSetups times; the last daemon runs.
  Samples setup;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon != nullptr) daemon->Drain();
    daemon = std::make_unique<Daemon>();
    const uint64_t t0 = NowNs();
    Status started = daemon->Start();
    setup.Add(NowNs() - t0);
    if (!started.ok()) {
      report.Fail("daemon start: " + started.ToString());
      daemon->Drain();
      return report;
    }
  }

  const uint64_t slice_ns = SliceNs(config.seconds);
  const size_t slices = SliceCount(config.seconds);
  std::vector<std::unique_ptr<Generator>> generators;
  for (size_t i = 0; i < kSessions; ++i) {
    generators.push_back(
        std::make_unique<Generator>(config.seed, i, config.traced()));
    Generator& g = *generators.back();
    const size_t txns =
        static_cast<size_t>(config.seconds * kTxnsPerSessionPerS);
    g.slice_commits.assign(slices, 0);
    g.acquire.reserve(txns * kLocksPerTxn);
    g.txn.reserve(txns);
    g.blocked_grant.Reserve(txns / 8);
  }

  const uint64_t warmup_ns = static_cast<uint64_t>(config.seconds * 5e7);
  const uint64_t window_start = NowNs() + warmup_ns;
  const uint64_t window_end = window_start + slices * slice_ns;
  RssProbe rss;
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        ClosedLoop(daemon->clients[i].get(), generators[i].get(), &rss,
                   window_start, window_end, slice_ns)
            .Loop();
      });
    }
    ConcurrentLockService& service = *daemon->service;
    // Counters at the window's edges, read from this thread.
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        window_start - std::min(window_start, NowNs())));
    const uint64_t cpu_start = ProcessCpuNs();
    const twbg::net::ServerStats net_start = daemon->server->stats();
    const ServiceWindow counters(service);
    const uint64_t epoch_start = service.snapshot_epoch();
    const size_t victims_start = service.deadlock_victims();
    // Process CPU at every slice boundary.
    std::vector<uint64_t> slice_cpu = {cpu_start};
    for (size_t k = 1; k <= slices; ++k) {
      const uint64_t boundary = window_start + k * slice_ns;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(boundary - std::min(boundary, NowNs())));
      slice_cpu.push_back(ProcessCpuNs());
    }
    const uint64_t cpu_end = slice_cpu.back();
    const twbg::net::ServerStats net_end = daemon->server->stats();
    const uint64_t passes = service.snapshot_epoch() - epoch_start;
    const size_t pass_victims = service.deadlock_victims() - victims_start;
    const double window_s = static_cast<double>(window_end - window_start) / 1e9;
    counters.Emit(window_s, &report);
    for (std::thread& t : threads) t.join();

    // -- merge the generators --
    std::vector<SliceRates> rates;
    for (size_t k = 0; k < slices; ++k) {
      uint64_t slice_commits = 0;
      for (const auto& g : generators) slice_commits += g->slice_commits[k];
      rates.push_back(
          RatesOf(slice_ns, slice_commits, slice_cpu[k + 1] - slice_cpu[k]));
    }
    Samples acquire, txn;
    acquire.Reserve(0);
    txn.Reserve(0);
    for (const auto& g : generators) {
      for (uint64_t ns : g->acquire) acquire.Add(ns);
      for (uint64_t ns : g->txn) txn.Add(ns);
    }
    Samples blocked_grant;
    uint64_t begun = 0, commits = 0, victims = 0, acquires = 0, blocked = 0;
    uint64_t client_cpu = 0, call_ns = 0;
    std::vector<const Trace*> traces;
    for (const auto& g : generators) {
      blocked_grant.Merge(g->blocked_grant);
      begun += g->begun;
      commits += g->commits;
      victims += g->victims;
      acquires += g->acquires;
      blocked += g->blocked;
      report.attempted += g->attempted;
      report.failed += g->failed;
      if (!g->first_error.empty()) report.Fail(g->first_error);
      client_cpu += g->cpu_end - g->cpu_start;
      call_ns += g->call_ns;
      traces.push_back(&g->trace);
    }
    const uint64_t cpu = cpu_end - cpu_start;

    // -- end to end --
    Report& r = report;
    ReportEndToEnd(rates, acquire, txn, &r);
    r.Metric("abort_ratio", Ratio(victims, begun), "ratio");
    r.Metric("error_ratio", Ratio(r.failed, r.attempted), "ratio");
    r.Metric("blocked_grant_p50_us", blocked_grant.Quantile(0.50) / 1e3, "us");
    r.Metric("peak_rss_mib", rss.mib > 0 ? rss.mib : PeakRssMib(), "MiB");
    r.Metric("setup_s", setup.Quantile(0.50) / 1e9, "s");
    r.Count("blocked_grant_samples", blocked_grant.count());
    r.Count("commits", commits);
    r.Count("aborts", victims);
    r.Count("begun", begun);

    // -- per layer: net --
    const auto calls = [&](SpanKind kind) {
      Samples all;
      for (const auto& g : generators) all.Merge(g->trace.durations(kind));
      return all;
    };
    const auto p50_us = [&](SpanKind kind) {
      return calls(kind).Quantile(0.50) / 1e3;
    };
    Samples ping = calls(SpanKind::kPing);
    Samples await = calls(SpanKind::kAwait);
    r.Metric("net.ping_rtt_p50_us", ping.Quantile(0.50) / 1e3, "us");
    r.Metric("net.ping_rtt_p99_us", ping.Quantile(0.99) / 1e3, "us");
    r.Metric("net.begin_rtt_p50_us", p50_us(SpanKind::kBegin), "us");
    r.Metric("net.acquire_rtt_p50_us", p50_us(SpanKind::kAcquire), "us");
    r.Metric("net.commit_rtt_p50_us", p50_us(SpanKind::kCommit), "us");
    r.Metric("net.await_p50_us", await.Quantile(0.50) / 1e3, "us");
    r.Metric("net.await_p99_us", await.Quantile(0.99) / 1e3, "us");
    r.Metric("net.client_cpu_us_per_commit", Ratio(client_cpu / 1e3, commits),
             "us");
    r.Metric("net.server_cpu_us_per_commit",
             Ratio((cpu > client_cpu ? cpu - client_cpu : 0) / 1e3, commits),
             "us");
    r.Metric("net.requests", net_end.requests - net_start.requests, "count");
    r.Metric("net.inflight_rejects",
             net_end.inflight_rejects - net_start.inflight_rejects, "count");
    r.Metric("net.protocol_errors",
             net_end.protocol_errors - net_start.protocol_errors, "count");

    // -- per layer: txn and core, through the service's counters --
    r.Metric("txn.acquire_calls", acquires, "count");
    r.Metric("txn.blocked_ratio", Ratio(blocked, acquires), "ratio");
    r.Metric("core.passes", passes, "count");
    r.Metric("core.victims", pass_victims, "count");
    r.Metric("core.victim_ratio", Ratio(pass_victims, begun), "ratio");
    // Each generator's self time: the window minus its call spans.
    r.Metric("driver.busy_share",
             1.0 - Ratio(call_ns / 1e9, window_s * kSessions), "ratio");

    if (config.traced() && !WriteTrace(config.trace_out, window_start, traces)) {
      r.Fail("cannot write trace to " + config.trace_out);
    }
  }

  // -- checks: a clean drain that answered every request --
  daemon->Drain();
  const twbg::net::ServerStats stats = daemon->server->stats();
  if (report.failed != 0) {
    report.Fail(std::to_string(report.failed) + " operations failed");
  }
  if (stats.protocol_errors != 0) {
    report.Fail(std::to_string(stats.protocol_errors) + " protocol errors");
  }
  if (stats.requests != stats.responses) {
    report.Fail("server answered " + std::to_string(stats.responses) + " of " +
                std::to_string(stats.requests) + " requests");
  }
  if (daemon->service->live_transactions() != 0) {
    report.Fail("live_transactions() = " +
                std::to_string(daemon->service->live_transactions()) +
                " after the drain");
  }
  return report;
}

}  // namespace perfbench
