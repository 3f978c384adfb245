// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// hot_zipf and wide_uniform: one driver thread multiplexes many live
// sessions over ConcurrentLockService's non-blocking calls (Begin,
// AcquireAsync, State, Commit, Abort) and runs RunDetectionPass itself.
// Single-threaded on purpose: the sequence of calls, and so every count,
// depends on the seed alone (perfbench/README.md).

#include <sched.h>

#include <cmath>
#include <deque>
#include <memory>
#include <optional>

#include "bench.h"
#include "txn/concurrent_service.h"

namespace perfbench {
namespace {

using twbg::Result;
using twbg::Status;
using twbg::lock::LockMode;
using twbg::lock::RequestOutcome;
using twbg::lock::TransactionId;
using twbg::txn::ConcurrentLockService;
using twbg::txn::ConcurrentServiceOptions;
using twbg::txn::TxnState;

constexpr size_t kLocksPerTxn = 8;
constexpr uint64_t kOpsPerPass = 1024;
constexpr int kSetupBursts = 10;
constexpr uint64_t kSetupGapNs = 150000000;
constexpr size_t kShards = 4;
// Counts are checkpointed after 2^k operations, k >= this.
constexpr int kFirstCheckpointLog2 = 14;

struct Shape {
  size_t sessions;
  uint64_t keys;
  double zipf_theta;  // 0: uniform keys
  std::vector<LockMode> modes;  // drawn with equal odds
  double upgrade_p;
  // Sample buffer sizing: most acquires a second can plausibly complete.
  size_t acquires_per_s;
  // peak_rss_mib is read when this many transactions have committed, in
  // the first two seconds of a run (see kRssCommits in daemon.cc).
  uint64_t rss_commits;
};

Shape ShapeOf(const std::string& workload) {
  if (workload == "hot_zipf") {
    return {512, 65536, 0.7,
            {LockMode::kIS, LockMode::kIX, LockMode::kS, LockMode::kX},
            0.25, 1 << 18, 1 << 12};
  }
  // 90% S, 10% X.
  std::vector<LockMode> modes(9, LockMode::kS);
  modes.push_back(LockMode::kX);
  return {16, 4194304, 0, modes, 0, 1 << 21, 1 << 17};
}

struct Request {
  uint32_t rid;
  LockMode mode;
};

// Transaction specs in the order sessions begin them.  `zipf` (null for
// uniform keys) is built once per process, outside the timed set-ups.
class InputStream {
 public:
  InputStream(const Shape& shape, const ZipfKeys* zipf, uint64_t seed)
      : shape_(shape), rng_(seed), zipf_(zipf) {}

  void Next(std::vector<Request>* plan) {
    plan->clear();
    for (size_t i = 0; i < kLocksPerTxn; ++i) {
      const uint64_t key =
          zipf_ ? zipf_->Sample(rng_) : rng_.Below(shape_.keys);
      plan->push_back({static_cast<uint32_t>(key),
                       shape_.modes[rng_.Below(shape_.modes.size())]});
    }
    for (size_t i = 0; i < kLocksPerTxn && shape_.upgrade_p > 0; ++i) {
      if (rng_.Unit() < shape_.upgrade_p) {
        plan->push_back({(*plan)[i].rid, LockMode::kX});
      }
    }
  }

 private:
  const Shape& shape_;
  InputRng rng_;
  const ZipfKeys* zipf_;
};

struct Session {
  TransactionId tid = 0;
  bool live = false;
  std::vector<Request> plan;
  size_t next = 0;
  uint64_t txn_start = 0;   // Begin issued
  uint64_t wait_start = 0;  // the blocked acquire issued
  uint64_t txn_span = 0;
};

// Moves the calling thread to the next CPU it may use, one CPU after
// another.  On a shared virtual machine each virtual CPU runs slower or
// faster for seconds at a time, independently of the others (another
// tenant on its physical core); a single-threaded run left on one CPU
// reads as fast or as slow as that CPU happened to be.  Moved at every
// slice, a run spreads its slices evenly over all of them.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  // Best effort: a refused move leaves the thread where it is.
  void Next() {
    if (cpus_.size() < 2) return;
    next_ = (next_ + 1) % cpus_.size();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Everything counted in the window.
struct Tally {
  uint64_t begun = 0, commits = 0, victims = 0, acquires = 0, blocked = 0;
  uint64_t passes = 0, useful_passes = 0, cycles = 0, pass_victims = 0;
  uint64_t tdr2 = 0, decisions = 0, rejected = 0;
  uint64_t txns_seen = 0, edges = 0, steps = 0, reused = 0, rebuilt = 0;
};

class Driver {
 public:
  Driver(const Shape& shape, const ZipfKeys* zipf, uint64_t seed,
         ConcurrentLockService* service, Report* report, Trace* trace)
      : shape_(shape),
        inputs_(shape, zipf, seed),
        service_(service),
        report_(report),
        trace_(trace),
        sessions_(shape.sessions) {}

  // Part of set-up: every session begins its first transaction.
  bool StartSessions() {
    for (uint32_t i = 0; i < sessions_.size(); ++i) {
      if (!BeginTxn(i)) return false;
      runnable_.push_back(i);
    }
    return true;
  }

  void ReserveSamples() {
    acquire_.Reserve(shape_.acquires_per_s);
    txn_.Reserve(shape_.acquires_per_s / kLocksPerTxn);
    blocked_grant_.Reserve(shape_.acquires_per_s);
  }

  // Runs until `window_end`; measures from `window_start`.
  void Run(uint64_t window_start, uint64_t window_end, uint64_t slice_ns) {
    window_start_ = window_start;
    slice_ns_ = slice_ns;
    uint64_t iterations = 0;
    int idle_passes = 0;
    while (true) {
      if ((++iterations & 15) == 0) {
        const uint64_t now = NowNs();
        if (!measuring_ && now >= window_start_) StartWindow(now);
        if (now >= window_end) break;
        if (measuring_ && now >= slice_start_ + slice_ns_) CloseSlice(now);
      }
      if (runnable_.empty()) {
        // Nobody can make progress: only a pass can change that.
        Pass();
        PollBlocked();
        if (runnable_.empty() && ++idle_passes > 4) {
          report_->Fail("no session can make progress after repeated passes");
          return;
        }
        continue;
      }
      idle_passes = 0;
      const uint32_t index = runnable_.front();
      runnable_.pop_front();
      Session& s = sessions_[index];
      if (s.next < s.plan.size()) {
        Acquire(index);
      } else {
        Commit(index);
      }
      if (ops_ >= next_pass_) {
        Pass();
        PollBlocked();
        while (next_pass_ <= ops_) next_pass_ += kOpsPerPass;
      }
      if (!report_->ok()) return;
    }
    window_end_ = NowNs();
    if (window_end_ - slice_start_ >= slice_ns_ / 2) CloseSlice(window_end_);
  }

  // Aborts every open session (outside the window).
  void AbortOpen() {
    for (Session& s : sessions_) {
      if (!s.live) continue;
      Status status = service_->Abort(s.tid);
      if (!status.ok()) Error("Abort", status);
      s.live = false;
    }
  }

  void Emit(double setup_s) {
    Report& r = *report_;
    const double window_s = static_cast<double>(window_end_ - window_start_) / 1e9;
    const Tally& t = tally_;
    ReportEndToEnd(slices_, acquire_, txn_, &r);
    r.Metric("abort_ratio", Ratio(t.victims, t.begun), "ratio");
    r.Metric("error_ratio", Ratio(r.failed, r.attempted), "ratio");
    r.Metric("blocked_grant_p50_us", blocked_grant_.Quantile(0.50) / 1e3, "us");
    r.Metric("peak_rss_mib", rss_mib_ > 0 ? rss_mib_ : PeakRssMib(), "MiB");
    r.Metric("setup_s", setup_s, "s");
    r.Count("blocked_grant_samples", blocked_grant_.count());
    r.Count("commits", t.commits);
    r.Count("aborts", t.victims);
    r.Count("begun", t.begun);

    // -- per-layer: core (from the reports RunDetectionPass returned) --
    r.Metric("core.passes", t.passes, "count");
    r.Metric("core.txns_per_pass", Ratio(t.txns_seen, t.passes), "count");
    r.Metric("core.edges_per_pass", Ratio(t.edges, t.passes), "count");
    r.Metric("core.steps_per_pass", Ratio(t.steps, t.passes), "count");
    r.Metric("core.cache_reuse_ratio", Ratio(t.reused, t.reused + t.rebuilt),
             "ratio");
    r.Metric("core.cycles", t.cycles, "count");
    r.Metric("core.victims", t.pass_victims, "count");
    r.Metric("core.victim_ratio", Ratio(t.pass_victims, t.begun), "ratio");
    r.Metric("core.tdr2_repositions", t.tdr2, "count");
    r.Metric("core.rejected", t.rejected, "count");
    r.Metric("core.useful_pass_ratio", Ratio(t.useful_passes, t.passes),
             "ratio");
    r.Metric("core.tdr2_share", Ratio(t.tdr2, t.decisions), "ratio");

    // -- per-layer: txn (the service's own counters) --
    r.Metric("txn.acquire_calls", t.acquires, "count");
    r.Metric("txn.blocked_ratio", Ratio(t.blocked, t.acquires), "ratio");
    r.Metric("txn.state_calls", state_calls_, "count");
    counters_->Emit(window_s, &r);
  }

  void EmitSpans(double window_s) {
    Report& r = *report_;
    // Busy shares: summed call-span time over the window.  The driver's
    // share is its self time: the window minus the union of call spans.
    // On one thread the spans never overlap, so the shares add up to 1;
    // a span outside the window or counted twice breaks the sum.
    double shares = 0;
    const auto busy = [&](const char* name, SpanKind kind) -> Samples& {
      Samples& d = trace_->durations(kind);
      const double share = Ratio(d.sum() / 1e9, window_s);
      shares += share;
      r.Metric(name, share, "ratio");
      return d;
    };
    Samples& begin = busy("txn.begin_busy_share", SpanKind::kBegin);
    Samples& acquire = busy("txn.acquire_busy_share", SpanKind::kAcquire);
    Samples& state = busy("txn.state_busy_share", SpanKind::kState);
    Samples& commit = busy("txn.commit_busy_share", SpanKind::kCommit);
    Samples& pass = busy("core.pass_busy_share", SpanKind::kPass);
    const double driver = 1.0 - Ratio(covered_ns_ / 1e9, window_s);
    r.Metric("driver.busy_share", driver, "ratio");
    r.Metric("trace.busy_share_sum", shares + driver, "ratio");
    if (std::fabs(shares + driver - 1.0) > kShareTolerance) {
      r.Fail("busy shares plus driver.busy_share = " +
             std::to_string(shares + driver) + ", not 1");
    }
    r.Count("trace.spans_dropped", trace_->dropped());
    r.Metric("txn.begin_ns_p50", begin.Quantile(0.50), "ns");
    r.Metric("txn.acquire_ns_p50", acquire.Quantile(0.50), "ns");
    r.Metric("txn.acquire_ns_p99", acquire.Quantile(0.99), "ns");
    r.Metric("txn.state_ns_p50", state.Quantile(0.50), "ns");
    r.Metric("txn.commit_ns_p50", commit.Quantile(0.50), "ns");
    r.Metric("txn.commit_ns_p99", commit.Quantile(0.99), "ns");
    r.Metric("core.pass_us_p50", pass.Quantile(0.50) / 1e3, "us");
    r.Metric("core.pass_us_p99", pass.Quantile(0.99) / 1e3, "us");
  }

  uint64_t window_start() const { return window_start_; }
  double window_s() const {
    return static_cast<double>(window_end_ - window_start_) / 1e9;
  }

  // |sum of busy shares + driver.busy_share - 1| must stay within this.
  static constexpr double kShareTolerance = 1e-3;

 private:
  bool BeginTxn(uint32_t index) {
    Session& s = sessions_[index];
    const uint64_t t0 = NowNs();
    Result<TransactionId> tid = service_->Begin();
    const uint64_t t1 = NowNs();
    s.txn_span = trace_->NewId();
    Record(SpanKind::kBegin, s.txn_span, t0, t1);
    CountOp();
    if (!tid.ok()) {
      Error("Begin", tid.status());
      return false;
    }
    s.tid = *tid;
    s.live = true;
    s.txn_start = t0;
    s.next = 0;
    inputs_.Next(&s.plan);
    if (measuring_) tally_.begun++;
    return true;
  }

  void Acquire(uint32_t index) {
    Session& s = sessions_[index];
    const Request& req = s.plan[s.next];
    const uint64_t t0 = NowNs();
    Result<RequestOutcome> outcome =
        service_->AcquireAsync(s.tid, req.rid, req.mode);
    const uint64_t t1 = NowNs();
    Record(SpanKind::kAcquire, s.txn_span, t0, t1);
    if (measuring_) tally_.acquires++;
    CountOp();
    if (!outcome.ok()) {
      Error("AcquireAsync", outcome.status());
      return;
    }
    if (*outcome == RequestOutcome::kBlocked) {
      if (measuring_) tally_.blocked++;
      s.wait_start = t0;
      blocked_.push_back(index);
      return;
    }
    if (measuring_ && t0 >= window_start_) acquire_.Add(t1 - t0);
    s.next++;
    runnable_.push_back(index);
  }

  void Commit(uint32_t index) {
    Session& s = sessions_[index];
    const uint64_t t0 = NowNs();
    Status status = service_->Commit(s.tid);
    const uint64_t t1 = NowNs();
    Record(SpanKind::kCommit, s.txn_span, t0, t1);
    CountOp();
    s.live = false;
    if (!status.ok()) {
      Error("Commit", status);
      return;
    }
    if (++commits_total_ == shape_.rss_commits) rss_mib_ = PeakRssMib();
    if (measuring_) tally_.commits++;
    if (measuring_ && s.txn_start >= window_start_) txn_.Add(t1 - s.txn_start);
    RecordTxn(s, t1);
    PollBlocked();
    if (BeginTxn(index)) runnable_.push_back(index);
  }

  // Polls State for every blocked session, in blocking order.
  void PollBlocked() {
    size_t keep = 0;
    for (size_t i = 0; i < blocked_.size(); ++i) {
      const uint32_t index = blocked_[i];
      Session& s = sessions_[index];
      const uint64_t t0 = NowNs();
      Result<TxnState> state = service_->State(s.tid);
      const uint64_t t1 = NowNs();
      Record(SpanKind::kState, s.txn_span, t0, t1);
      if (measuring_) state_calls_++;
      report_->attempted++;
      if (!state.ok()) {
        Error("State", state.status());
        continue;
      }
      if (*state == TxnState::kBlocked) {
        blocked_[keep++] = index;
        continue;
      }
      if (*state == TxnState::kActive) {
        if (measuring_ && s.wait_start >= window_start_) {
          acquire_.Add(t1 - s.wait_start);
          blocked_grant_.Add(t1 - s.wait_start);
        }
        s.next++;
        runnable_.push_back(index);
        continue;
      }
      s.live = false;
      if (*state != TxnState::kAborted) {
        Error("State", Status::Internal("blocked transaction committed"));
        continue;
      }
      if (measuring_) tally_.victims++;
      victims_total_++;
      RecordTxn(s, t1);
      if (BeginTxn(index)) runnable_.push_back(index);
    }
    blocked_.resize(keep);
  }

  void Pass() {
    const uint64_t t0 = NowNs();
    twbg::core::ResolutionReport report = service_->RunDetectionPass();
    const uint64_t t1 = NowNs();
    Record(SpanKind::kPass, 0, t0, t1);
    size_t tdr2 = 0;
    for (const auto& decision : report.decisions) {
      if (decision.victim().kind == twbg::core::VictimKind::kReposition) ++tdr2;
    }
    cycles_total_ += report.cycles_detected;
    pass_victims_total_ += report.aborted.size();
    tdr2_total_ += tdr2;
    if (!measuring_) return;
    Tally& t = tally_;
    t.passes++;
    t.useful_passes += report.cycles_detected > 0 ? 1 : 0;
    t.cycles += report.cycles_detected;
    t.pass_victims += report.aborted.size();
    t.tdr2 += tdr2;
    t.decisions += report.decisions.size();
    t.rejected += report.rejected;
    t.txns_seen += report.num_transactions;
    t.edges += report.num_edges;
    t.steps += report.steps;
    t.reused += report.edges_reused;
    t.rebuilt += report.edges_rebuilt;
  }

  void CloseSlice(uint64_t now) {
    const uint64_t cpu = ProcessCpuNs();
    slices_.push_back(RatesOf(now - slice_start_,
                              tally_.commits - slice_commits_,
                              cpu - slice_cpu_));
    slice_start_ = now;
    slice_commits_ = tally_.commits;
    slice_cpu_ = cpu;
    if (cpus_) cpus_->Next();
  }

  // Counts a lock operation (Begin, AcquireAsync, Commit, Abort): these
  // set the pass cadence and the checkpoints.  State polls only read.
  void CountOp() {
    report_->attempted++;
    if (++ops_ == next_checkpoint_) {
      report_->Checkpoint({ops_, commits_total_,
                           victims_total_, cycles_total_,
                           pass_victims_total_, tdr2_total_});
      next_checkpoint_ *= 2;
    }
  }

  void Error(const char* call, const Status& status) {
    report_->failed++;
    if (report_->failed <= 3) {
      report_->Fail(std::string(call) + ": " + status.ToString());
    }
  }

  void Record(SpanKind kind, uint64_t parent, uint64_t t0, uint64_t t1) {
    if (!measuring_ || !trace_->on()) return;
    trace_->Call(kind, parent, t0, t1);
    covered_ns_ += t1 - std::max(t0, std::min(t1, last_end_));
    last_end_ = std::max(last_end_, t1);
  }
  void RecordTxn(const Session& s, uint64_t t1) {
    if (measuring_ && trace_->on()) trace_->Txn(s.txn_span, s.txn_start, t1);
  }

  void StartWindow(uint64_t now) {
    measuring_ = true;
    window_start_ = now;
    slice_start_ = now;
    slice_cpu_ = ProcessCpuNs();
    counters_.emplace(*service_);
    cpus_.emplace();
  }

  const Shape& shape_;
  InputStream inputs_;
  ConcurrentLockService* service_;
  Report* report_;
  Trace* trace_;
  std::vector<Session> sessions_;
  std::deque<uint32_t> runnable_;
  std::vector<uint32_t> blocked_;

  uint64_t ops_ = 0;
  uint64_t next_pass_ = kOpsPerPass;
  uint64_t next_checkpoint_ = uint64_t{1} << kFirstCheckpointLog2;
  // Whole-run totals (warm-up included) for the checkpoints.
  uint64_t commits_total_ = 0, victims_total_ = 0, cycles_total_ = 0;
  uint64_t pass_victims_total_ = 0, tdr2_total_ = 0;

  bool measuring_ = false;
  uint64_t window_start_ = UINT64_MAX, window_end_ = 0;
  Samples acquire_, txn_;
  // Rates of the closed slices, and where the open one started.
  std::vector<SliceRates> slices_;
  uint64_t slice_ns_ = 0, slice_start_ = 0, slice_commits_ = 0, slice_cpu_ = 0;
  // Made when the window starts: finding the CPUs is a system call, which
  // must not count in the timed set-ups.
  std::optional<CpuRotation> cpus_;
  Tally tally_;
  uint64_t state_calls_ = 0;
  double rss_mib_ = 0;
  // Union of the call spans in the window (traced runs).
  uint64_t covered_ns_ = 0, last_end_ = 0;
  Samples blocked_grant_;
  std::optional<ServiceWindow> counters_;
};

std::unique_ptr<ConcurrentLockService> NewService() {
  ConcurrentServiceOptions options;
  options.detection_mode = twbg::txn::DetectionMode::kPeriodic;
  options.num_shards = kShards;
  // detection_period stays 0: the driver runs every pass itself.
  auto service = ConcurrentLockService::Create(options);
  return service.ok() ? std::move(*service) : nullptr;
}

}  // namespace

Report RunInProcess(const Config& config) {
  Report report;
  const Shape shape = ShapeOf(config.workload);
  Trace trace(config.traced(), 1, 1);
  std::optional<ZipfKeys> zipf;
  if (shape.zipf_theta > 0) zipf.emplace(shape.keys, shape.zipf_theta);

  // Set-up, timed kSetups times on fresh services; the last one runs.
  // A set-up takes microseconds, and for a few hundred milliseconds at a
  // time the shared host runs every set-up about a third faster or slower;
  // so the set-ups come in kSetupBursts bursts kSetupGapNs apart, and
  // their median mixes those moments.
  Samples setup;
  std::unique_ptr<ConcurrentLockService> service;
  std::unique_ptr<Driver> driver;
  for (int i = 0; i < kSetups; ++i) {
    driver.reset();
    service.reset();
    report.attempted = 0;  // count the measured service's operations only
    if (i > 0 && i % (kSetups / kSetupBursts) == 0) {
      const uint64_t until = NowNs() + kSetupGapNs;
      while (NowNs() < until) {
      }
    }
    const uint64_t t0 = NowNs();
    service = NewService();
    if (service == nullptr) {
      report.Fail("ConcurrentLockService::Create failed");
      return report;
    }
    driver = std::make_unique<Driver>(shape, zipf ? &*zipf : nullptr,
                                      config.seed, service.get(), &report,
                                      &trace);
    const bool started = driver->StartSessions();
    setup.Add(NowNs() - t0);
    if (!started) return report;
    if (i + 1 < kSetups) driver->AbortOpen();
  }
  driver->ReserveSamples();

  // A short warm-up lets the lock table's pools fill before the window.
  const uint64_t warmup_ns = static_cast<uint64_t>(config.seconds * 5e7);
  const uint64_t start = NowNs() + warmup_ns;
  driver->Run(start, start + static_cast<uint64_t>(config.seconds * 1e9),
              SliceNs(config.seconds));
  driver->AbortOpen();

  if (report.ok()) {
    if (service->live_transactions() != 0) {
      report.Fail("live_transactions() = " +
                  std::to_string(service->live_transactions()) +
                  " after aborting every open session");
    }
    Status invariants = service->CheckInvariants(/*deep=*/true);
    if (!invariants.ok()) {
      report.Fail("CheckInvariants: " + invariants.ToString());
    }
  }
  driver->Emit(setup.Quantile(0.50) / 1e9);
  if (config.traced()) {
    driver->EmitSpans(driver->window_s());
    if (!WriteTrace(config.trace_out, driver->window_start(), {&trace})) {
      report.Fail("cannot write trace to " + config.trace_out);
    }
  }
  return report;
}

}  // namespace perfbench
