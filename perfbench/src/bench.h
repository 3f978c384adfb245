// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Shared pieces of the repo benchmark (perfbench/README.md): the seeded
// input generator, clocks, exact latency samples, the in-memory span
// trace and the one-line JSON report each workload process prints.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace twbg::txn {
class ConcurrentLockService;
}

namespace perfbench {

// ---------------------------------------------------------------------------
// Inputs.  The benchmark owns its generator (xoshiro256** seeded through
// SplitMix64), so the inputs depend on --seed alone and never on the
// program's own random-number code.
// ---------------------------------------------------------------------------

class InputRng {
 public:
  explicit InputRng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound);
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t s_[4];
};

/// Zipf(theta) over [0, n): key 0 is the hottest.
class ZipfKeys {
 public:
  ZipfKeys(uint64_t n, double theta);
  uint64_t Sample(InputRng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Clocks and process figures.
// ---------------------------------------------------------------------------

uint64_t NowNs();          // steady clock
uint64_t ProcessCpuNs();   // user + system CPU of the whole process
uint64_t ThreadCpuNs();    // CPU of the calling thread
double PeakRssMib();       // peak resident set of the process so far

// ---------------------------------------------------------------------------
// Exact samples in bounded memory.  obs::LogHistogram's 2x buckets cannot
// resolve a 10% change, so every sample keeps its exact value: values
// below kDirect are counted per nanosecond, larger ones stored as is.
// ---------------------------------------------------------------------------

class Samples {
 public:
  static constexpr uint64_t kDirect = uint64_t{1} << 18;

  /// Allocates before the window (and before the first Add): the direct
  /// counts, and room for `large` values of kDirect or more.
  void Reserve(size_t large);
  void Add(uint64_t value) {
    if (value < kDirect && !direct_.empty()) {
      ++direct_[value];
    } else {
      large_.push_back(value);
    }
    ++count_;
    sum_ += value;
  }
  void Merge(const Samples& other);
  /// Forgets every sample, keeping the allocation.
  void Clear();
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  /// Nearest-rank quantile, q in (0, 1]; 0 when empty.
  double Quantile(double q);

 private:
  std::vector<uint32_t> direct_;
  std::vector<uint64_t> large_;
  bool sorted_ = false;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

// ---------------------------------------------------------------------------
// End-to-end figures.  Latency percentiles pool every sample of the
// window.  Rates are taken per slice of about a second and reported as the
// median over the slices, so one second in which the shared host stalls
// the process does not move them.
// ---------------------------------------------------------------------------

/// A window of `seconds` is cut into this many slices of about a second.
inline uint64_t SliceCount(double seconds) {
  return seconds < 1.5 ? 1 : static_cast<uint64_t>(std::llround(seconds));
}
inline uint64_t SliceNs(double seconds) {
  return static_cast<uint64_t>(seconds * 1e9 /
                               static_cast<double>(SliceCount(seconds)));
}

/// The rates of one slice.
struct SliceRates {
  double commits_per_s = 0;
  double cpu_us_per_commit = 0;
};
SliceRates RatesOf(uint64_t slice_ns, uint64_t commits, uint64_t cpu_ns);

class Report;
/// Reports commits_per_s and cpu_us_per_commit (medians over `slices`) and
/// the acquire and transaction latency percentiles (ns samples).
void ReportEndToEnd(const std::vector<SliceRates>& slices, Samples& acquire,
                    Samples& txn, Report* report);

// ---------------------------------------------------------------------------
// Span trace (traced runs only).  Every call's duration feeds the
// per-kind samples; the span records themselves (with their parents) are
// kept in memory for the first kMaxSpans of the window and written out
// once the run has ended.
// ---------------------------------------------------------------------------

enum class SpanKind : uint8_t {
  kTxn,      // Begin issued .. Commit acknowledged (or victim abort seen)
  kBegin,
  kAcquire,  // AcquireAsync in-process, the Acquire round trip over TCP
  kState,
  kAwait,
  kCommit,
  kPing,
  kPass,     // RunDetectionPass
  kCount,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: the measured window itself
  SpanKind kind = SpanKind::kTxn;
};

class Trace {
 public:
  /// Span records kept per process, shared evenly between the lanes.
  static constexpr size_t kMaxSpans = 1000000;

  /// `lane` (1..lanes) makes span ids unique across threads.
  Trace(bool on, uint32_t lane, uint32_t lanes);
  bool on() const { return on_; }
  uint64_t NewId() { return (uint64_t{lane_} << 40) | ++next_; }

  /// A call span: its duration always counts; the record is kept while
  /// there is room.
  void Call(SpanKind kind, uint64_t parent, uint64_t start_ns,
            uint64_t end_ns) {
    durations_[static_cast<size_t>(kind)].Add(end_ns - start_ns);
    Keep(kind, NewId(), parent, start_ns, end_ns);
  }
  /// A transaction span (it parents the calls made for it).
  void Txn(uint64_t id, uint64_t start_ns, uint64_t end_ns) {
    Keep(SpanKind::kTxn, id, 0, start_ns, end_ns);
  }

  Samples& durations(SpanKind kind) {
    return durations_[static_cast<size_t>(kind)];
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  void Keep(SpanKind kind, uint64_t id, uint64_t parent, uint64_t start_ns,
            uint64_t end_ns) {
    if (spans_.size() < capacity_) {
      spans_.push_back({start_ns, end_ns, id, parent, kind});
    } else {
      ++dropped_;
    }
  }

  bool on_;
  uint32_t lane_;
  size_t capacity_;
  uint64_t next_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  Samples durations_[static_cast<size_t>(SpanKind::kCount)];
};

/// Writes the kept spans as tab-separated lines (README.md, "Reading the
/// trace").  Returns false when the file cannot be written.
bool WriteTrace(const std::string& path, uint64_t window_start_ns,
                const std::vector<const Trace*>& traces);

// ---------------------------------------------------------------------------
// Run configuration and report.
// ---------------------------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;  // where a traced run writes its spans; empty: untraced
  bool traced() const { return !trace_out.empty(); }
};

/// Set-ups timed per run; setup_s is their median and the last one runs.
constexpr int kSetups = 50;

/// What one workload process prints as its single JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  void Count(const std::string& name, uint64_t value) {
    counts_.push_back({name, value});
  }
  /// A failed correctness check; the run reports ok=false.
  void Fail(const std::string& what) { failures_.push_back(what); }
  bool ok() const { return failures_.empty(); }
  /// Counts after the first `ops` operations (deterministic workloads).
  void Checkpoint(std::vector<uint64_t> row) {
    checkpoints_.push_back(std::move(row));
  }
  uint64_t attempted = 0;  // operations issued
  uint64_t failed = 0;     // answered other than granted/blocked/victim

  std::string Json(const Config& config) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, uint64_t>> counts_;
  std::vector<std::string> failures_;
  std::vector<std::vector<uint64_t>> checkpoints_;
};

/// Share helpers: 0 when the base is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The service's public counters at the start of the window; Emit reports
/// what the window added: shard publish and client-visible pauses, the
/// seal-to-apply lag and the shard-mutex figures.
class ServiceWindow {
 public:
  explicit ServiceWindow(const twbg::txn::ConcurrentLockService& service);
  void Emit(double window_s, Report* report) const;

 private:
  const twbg::txn::ConcurrentLockService& service_;
  size_t publish_ = 0, pause_ = 0, lag_ = 0;
  uint64_t waits_ = 0, ops_ = 0, hold_ns_ = 0;
};

Report RunInProcess(const Config& config);  // hot_zipf, wide_uniform
Report RunDaemon(const Config& config);     // daemon_tcp

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
