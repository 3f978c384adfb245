// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// twbg_perfbench: runs one workload of the repo benchmark in this process
// and prints one JSON line (perfbench/README.md).  perfbench/run.py builds
// it, runs each workload in its own process and checks the results.
//
//   twbg_perfbench <hot_zipf|wide_uniform|daemon_tcp> --seed=N --seconds=S
//                  [--trace=PATH]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

#include "bench.h"
#include "txn/concurrent_service.h"

namespace perfbench {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

InputRng::InputRng(uint64_t seed) {
  uint64_t state = seed;
  for (uint64_t& word : s_) word = SplitMix64(state);
}

uint64_t InputRng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t InputRng::Below(uint64_t bound) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double InputRng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

ZipfKeys::ZipfKeys(uint64_t n, double theta) : cdf_(n) {
  double total = 0;
  for (uint64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint64_t ZipfKeys::Sample(InputRng& rng) const {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<uint64_t>(it - cdf_.begin(), cdf_.size() - 1);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

void Samples::Reserve(size_t large) {
  if (count_ == 0) direct_.assign(kDirect, 0);
  large_.reserve(large);
}

void Samples::Merge(const Samples& other) {
  if (count_ == 0 && !other.direct_.empty()) direct_.assign(kDirect, 0);
  for (size_t v = 0; v < other.direct_.size(); ++v) {
    for (uint32_t n = 0; n < other.direct_[v]; ++n) Add(v);
  }
  for (uint64_t v : other.large_) Add(v);
  sorted_ = false;
}

void Samples::Clear() {
  std::fill(direct_.begin(), direct_.end(), 0);
  large_.clear();
  sorted_ = false;
  count_ = 0;
  sum_ = 0;
}

double Samples::Quantile(double q) {
  if (count_ == 0) return 0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (size_t v = 0; v < direct_.size(); ++v) {
    seen += direct_[v];
    if (seen >= rank) return static_cast<double>(v);
  }
  if (!sorted_) {
    std::sort(large_.begin(), large_.end());
    sorted_ = true;
  }
  const uint64_t index = std::min<uint64_t>(rank - seen - 1, large_.size() - 1);
  return static_cast<double>(large_[index]);
}

SliceRates RatesOf(uint64_t slice_ns, uint64_t commits, uint64_t cpu_ns) {
  return {Ratio(commits, slice_ns / 1e9), Ratio(cpu_ns / 1e3, commits)};
}

void ReportEndToEnd(const std::vector<SliceRates>& slices, Samples& acquire,
                    Samples& txn, Report* report) {
  const auto median = [&](double SliceRates::*field) {
    std::vector<double> v;
    for (const SliceRates& r : slices) v.push_back(r.*field);
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  };
  report->Metric("commits_per_s", median(&SliceRates::commits_per_s), "1/s");
  report->Metric("cpu_us_per_commit", median(&SliceRates::cpu_us_per_commit),
                 "us");
  report->Metric("acquire_p50_us", acquire.Quantile(0.50) / 1e3, "us");
  report->Metric("acquire_p99_us", acquire.Quantile(0.99) / 1e3, "us");
  report->Metric("txn_p50_us", txn.Quantile(0.50) / 1e3, "us");
  report->Metric("txn_p99_us", txn.Quantile(0.99) / 1e3, "us");
  report->Count("slices", slices.size());
  report->Count("acquire_samples", acquire.count());
  report->Count("txn_samples", txn.count());
}

namespace {

struct ShardTotals {
  uint64_t waits = 0, ops = 0, hold_ns = 0;
};

ShardTotals SumShards(const twbg::txn::ConcurrentLockService& service) {
  ShardTotals total;
  for (size_t i = 0; i < service.num_shards(); ++i) {
    const twbg::txn::ShardStats s = service.shard_stats(i);
    total.waits += s.acquire_waits;
    total.ops += s.ops;
    total.hold_ns += s.hold_ns;
  }
  return total;
}

Samples Tail(const std::vector<uint64_t>& all, size_t from) {
  Samples out;
  for (size_t i = from; i < all.size(); ++i) out.Add(all[i]);
  return out;
}

}  // namespace

ServiceWindow::ServiceWindow(const twbg::txn::ConcurrentLockService& service)
    : service_(service),
      publish_(service.publish_pause_times_ns().size()),
      pause_(service.pause_times_ns().size()),
      lag_(service.detection_lag_ns().size()) {
  const ShardTotals start = SumShards(service);
  waits_ = start.waits;
  ops_ = start.ops;
  hold_ns_ = start.hold_ns;
}

void ServiceWindow::Emit(double window_s, Report* report) const {
  Samples publish = Tail(service_.publish_pause_times_ns(), publish_);
  Samples pause = Tail(service_.pause_times_ns(), pause_);
  Samples lag = Tail(service_.detection_lag_ns(), lag_);
  const ShardTotals end = SumShards(service_);
  report->Metric("txn.publish_us_p50", publish.Quantile(0.50) / 1e3, "us");
  report->Metric("txn.publish_us_p99", publish.Quantile(0.99) / 1e3, "us");
  report->Metric("txn.pause_us_p99", pause.Quantile(0.99) / 1e3, "us");
  report->Metric("core.detect_apply_us_p50", lag.Quantile(0.50) / 1e3, "us");
  report->Metric("txn.shard_wait_ratio",
                 Ratio(end.waits - waits_, end.ops - ops_), "ratio");
  report->Metric("txn.shard_hold_share",
                 Ratio((end.hold_ns - hold_ns_) / 1e9, window_s), "ratio");
}

const char* SpanKindName(SpanKind kind) {
  static const char* const kNames[] = {"txn",   "begin",  "acquire",
                                       "state", "await",  "commit",
                                       "ping",  "pass"};
  return kNames[static_cast<size_t>(kind)];
}

Trace::Trace(bool on, uint32_t lane, uint32_t lanes)
    : on_(on), lane_(lane), capacity_(on ? kMaxSpans / lanes : 0) {
  spans_.reserve(capacity_);
  for (Samples& samples : durations_) {
    if (on) samples.Reserve(1024);
  }
}

bool WriteTrace(const std::string& path, uint64_t window_start_ns,
                const std::vector<const Trace*>& traces) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# id\tparent\tkind\tstart_ns\tduration_ns\n");
  for (const Trace* trace : traces) {
    for (const Span& span : trace->spans()) {
      // Spans opened before the window (a transaction in flight at its
      // start) are clipped to it, like the busy shares.
      const uint64_t start = std::max(span.start_ns, window_start_ns);
      std::fprintf(f, "%llu\t%llu\t%s\t%llu\t%llu\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   SpanKindName(span.kind),
                   static_cast<unsigned long long>(start - window_start_ns),
                   static_cast<unsigned long long>(
                       span.end_ns > start ? span.end_ns - start : 0));
    }
  }
  return std::fclose(f) == 0;
}

std::string Report::Json(const Config& config) const {
  // Appends `items` as a comma-separated list, one `write` each.
  const auto list = [](std::string& out, const auto& items, auto write) {
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ',';
      write(out, items[i]);
    }
  };
  std::string out = "{\"workload\":" + JsonString(config.workload);
  out += ",\"seed\":";
  out += std::to_string(config.seed);
  out += ",\"traced\":";
  out += config.traced() ? "true" : "false";
  out += ",\"ok\":";
  out += ok() ? "true" : "false";
  out += ",\"attempted\":";
  out += std::to_string(attempted);
  out += ",\"failed\":";
  out += std::to_string(failed);
  out += ",\"failures\":[";
  list(out, failures_, [](std::string& o, const std::string& f) {
    o += JsonString(f);
  });
  out += "],\"metrics\":{";
  list(out, metrics_, [](std::string& o, const auto& m) {
    o += JsonString(m.first);
    o += ":{\"value\":" + JsonNumber(m.second.first);
    o += ",\"unit\":" + JsonString(m.second.second) + "}";
  });
  out += "},\"counts\":{";
  list(out, counts_, [](std::string& o, const auto& c) {
    o += JsonString(c.first);
    o += ':';
    o += std::to_string(c.second);
  });
  out += "},\"checkpoints\":[";
  list(out, checkpoints_, [&](std::string& o, const std::vector<uint64_t>& row) {
    o += '[';
    list(o, row, [](std::string& o2, uint64_t v) { o2 += std::to_string(v); });
    o += ']';
  });
  out += "],\"host\":{\"host_cores\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"compiler\":" + JsonString(kCompiler);
  out += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) + "}}";
  return out;
}

}  // namespace perfbench

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "twbg_perfbench: %s\nusage: twbg_perfbench "
               "<hot_zipf|wide_uniform|daemon_tcp> --seed=N --seconds=S "
               "[--trace=PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  // Timings of an unoptimised build say nothing about the program.
  std::fprintf(stderr, "twbg_perfbench: built without optimisation; refusing "
                       "to report (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  if (argc < 2) return Usage("missing workload");
  perfbench::Config config;
  config.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string value;
    char* end = nullptr;
    if (ParseFlag(argv[i], "--seed", &value)) {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (ParseFlag(argv[i], "--seconds", &value)) {
      config.seconds = std::strtod(value.c_str(), &end);
      if (!(config.seconds > 0 && config.seconds <= 600)) end = nullptr;
    } else if (ParseFlag(argv[i], "--trace", &config.trace_out)) {
      if (!config.traced()) return Usage("--trace needs a path");
      continue;
    } else {
      return Usage("unknown flag");
    }
    if (end == nullptr || *end != '\0') return Usage("bad flag value");
  }

  perfbench::Report report;
  if (config.workload == "hot_zipf" || config.workload == "wide_uniform") {
    report = perfbench::RunInProcess(config);
  } else if (config.workload == "daemon_tcp") {
    report = perfbench::RunDaemon(config);
  } else {
    return Usage("unknown workload");
  }
  std::printf("%s\n", report.Json(config).c_str());
  return 0;
}
