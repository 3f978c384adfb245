// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "tools/twbg_trace.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>

#include "common/flat_map.h"
#include "common/string_util.h"
#include "obs/event.h"
#include "obs/span_sinks.h"
#include "obs/trace_reader.h"

namespace twbg::tools {
namespace {

using obs::Event;
using obs::EventKind;

// One reconstructed wait span: kLockBlock (or blocked kLockConvert)
// through its kLockWakeup / kTxnAbort, with the driver-measured duration
// from kWaitEnd when present.
struct SpanRecord {
  uint64_t span = 0;
  lock::TransactionId tid = 0;
  lock::ResourceId rid = 0;
  lock::LockMode mode = lock::LockMode::kNL;
  uint64_t start = 0;
  std::optional<uint64_t> end;       // nullopt: still open at end of trace
  bool aborted = false;              // closed by kTxnAbort, not a grant
  std::optional<double> wait_ticks;  // from kWaitEnd
};

// Replays the trace's lock events into per-span records, in open order.
std::vector<SpanRecord> ReconstructSpans(const std::vector<Event>& events) {
  std::vector<SpanRecord> spans;
  std::map<uint64_t, size_t> open;                 // span id -> index
  std::map<lock::TransactionId, uint64_t> by_tid;  // tid -> open span id
  for (const Event& event : events) {
    switch (event.kind) {
      case EventKind::kLockBlock:
      case EventKind::kLockConvert: {
        if (event.span == 0) break;  // granted conversion: no wait
        SpanRecord record;
        record.span = event.span;
        record.tid = event.tid;
        record.rid = event.rid;
        record.mode = event.mode;
        record.start = event.time;
        open[event.span] = spans.size();
        by_tid[event.tid] = event.span;
        spans.push_back(record);
        break;
      }
      case EventKind::kLockWakeup:
      case EventKind::kTxnAbort:
      case EventKind::kLockRelease: {
        // kLockRelease also closes: a waiter whose locks are all released
        // (a detector-aborted victim below the transaction layer) never
        // gets a wakeup.
        auto tid_it = by_tid.find(event.tid);
        if (tid_it == by_tid.end()) break;
        auto it = open.find(tid_it->second);
        if (it != open.end()) {
          spans[it->second].end = event.time;
          spans[it->second].aborted =
              event.kind != EventKind::kLockWakeup;
          open.erase(it);
        }
        by_tid.erase(tid_it);
        break;
      }
      case EventKind::kWaitEnd: {
        // The span is already closed by its wakeup; attach the measured
        // duration wherever the id matches.
        for (auto rit = spans.rbegin(); rit != spans.rend(); ++rit) {
          if (rit->span == event.span) {
            rit->wait_ticks = event.value;
            break;
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return spans;
}

std::string SpanLine(const SpanRecord& s) {
  std::string out = common::Format(
      "span %llu: T%u blocked %s on R%u @t=%llu",
      static_cast<unsigned long long>(s.span), s.tid,
      std::string(obs::LockModeName(s.mode)).c_str(), s.rid,
      static_cast<unsigned long long>(s.start));
  if (!s.end.has_value()) {
    out += "  [still waiting at end of trace]";
  } else {
    out += common::Format(
        " -> %s @t=%llu (%llut)", s.aborted ? "aborted" : "granted",
        static_cast<unsigned long long>(*s.end),
        static_cast<unsigned long long>(*s.end - s.start));
  }
  if (s.wait_ticks.has_value()) {
    out += common::Format(" wait=%.0ft", *s.wait_ticks);
  }
  return out;
}

// Percentile over an unsorted sample (nearest-rank); sorts a copy.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      p / 100.0 * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

void AppendLatencyRow(std::string* out, const char* name,
                      const std::vector<double>& values, const char* unit) {
  if (values.empty()) {
    *out += common::Format("  %-18s (no samples)\n", name);
    return;
  }
  double sum = 0.0, max = values[0];
  for (double v : values) {
    sum += v;
    max = std::max(max, v);
  }
  *out += common::Format(
      "  %-18s n=%zu mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f %s\n",
      name, values.size(), sum / static_cast<double>(values.size()),
      Percentile(values, 50), Percentile(values, 90), Percentile(values, 99),
      max, unit);
}

// Per-kind event counts, skipping zero rows.
void AppendKindCounts(std::string* out, const std::vector<Event>& events) {
  uint64_t counts[obs::kNumEventKinds] = {};
  for (const Event& event : events) {
    ++counts[static_cast<size_t>(event.kind)];
  }
  for (size_t i = 0; i < obs::kNumEventKinds; ++i) {
    if (counts[i] == 0) continue;
    *out += common::Format(
        "  %-18s %llu\n",
        std::string(obs::ToString(static_cast<EventKind>(i))).c_str(),
        static_cast<unsigned long long>(counts[i]));
  }
}

int CmdSummary(const std::vector<Event>& events, std::string* out) {
  *out += common::Format("%zu event(s)", events.size());
  if (!events.empty()) {
    *out += common::Format(
        ", t=%llu..%llu", static_cast<unsigned long long>(events.front().time),
        static_cast<unsigned long long>(events.back().time));
  }
  *out += "\n";
  AppendKindCounts(out, events);
  const std::vector<SpanRecord> spans = ReconstructSpans(events);
  size_t open = 0, aborted = 0;
  for (const SpanRecord& s : spans) {
    if (!s.end.has_value()) {
      ++open;
    } else if (s.aborted) {
      ++aborted;
    }
  }
  *out += common::Format(
      "wait spans: %zu opened, %zu granted, %zu aborted, %zu still open\n",
      spans.size(), spans.size() - open - aborted, aborted, open);
  size_t tdr2 = 0, cycles = 0;
  for (const Event& event : events) {
    if (event.kind != EventKind::kCycleResolved) continue;
    ++cycles;
    tdr2 += event.b;
  }
  *out += common::Format(
      "resolutions: %zu cycle(s), %zu by TDR-2 repositioning, %zu by "
      "TDR-1 abort\n",
      cycles, tdr2, cycles - tdr2);
  return 0;
}

int CmdChains(const std::vector<Event>& events, std::string* out) {
  const std::vector<SpanRecord> spans = ReconstructSpans(events);
  *out += common::Format("%zu wait span(s):\n", spans.size());
  for (const SpanRecord& s : spans) {
    *out += "  ";
    *out += SpanLine(s);
    *out += "\n";
  }
  // Active chains at end of trace: open spans grouped per resource.
  common::FlatMap<lock::ResourceId, std::vector<const SpanRecord*>> waiting;
  for (const SpanRecord& s : spans) {
    if (!s.end.has_value()) waiting[s.rid].push_back(&s);
  }
  if (!waiting.empty()) {
    *out += "open waits by resource:\n";
    // The accumulator iterates in hash-table order; the report contract
    // is ascending rid, so sort explicitly at the output boundary.
    std::vector<lock::ResourceId> rids;
    rids.reserve(waiting.size());
    for (const auto& entry : waiting) rids.push_back(entry.key);
    std::sort(rids.begin(), rids.end());
    for (lock::ResourceId rid : rids) {
      std::vector<std::string> names;
      for (const SpanRecord* s : *waiting.Find(rid)) {
        names.push_back(common::Format("T%u(span=%llu)", s->tid,
                                       static_cast<unsigned long long>(
                                           s->span)));
      }
      *out += common::Format("  R%u <- %s\n", rid,
                             common::Join(names, ", ").c_str());
    }
  }
  size_t cycles = 0;
  for (const Event& event : events) {
    if (event.kind != EventKind::kCyclePostMortem) continue;
    ++cycles;
    *out += common::Format(
        "cycle %zu resolved @t=%llu (junction T%u%s): %s\n", cycles,
        static_cast<unsigned long long>(event.time), event.tid,
        event.b != 0 ? common::Format(", repositioned R%u", event.rid).c_str()
                     : "",
        event.detail.c_str());
  }
  if (cycles == 0) *out += "no resolved cycles in this trace\n";
  return 0;
}

int CmdHot(const std::vector<Event>& events, size_t top_k, std::string* out) {
  struct Contention {
    size_t blocked_spans = 0;
    size_t open = 0;
    uint64_t queued_ticks = 0;
    uint64_t max_queued = 0;
    size_t repositions = 0;
  };
  common::FlatMap<lock::ResourceId, Contention> per_rid;
  const uint64_t horizon = events.empty() ? 0 : events.back().time;
  for (const SpanRecord& s : ReconstructSpans(events)) {
    Contention& c = per_rid[s.rid];
    ++c.blocked_spans;
    const uint64_t queued = (s.end.has_value() ? *s.end : horizon) - s.start;
    c.queued_ticks += queued;
    c.max_queued = std::max(c.max_queued, queued);
    if (!s.end.has_value()) ++c.open;
  }
  for (const Event& event : events) {
    if (event.kind == EventKind::kUprReposition) {
      ++per_rid[event.rid].repositions;
    }
  }
  std::vector<std::pair<lock::ResourceId, Contention>> rows;
  rows.reserve(per_rid.size());
  for (const auto& entry : per_rid) {
    rows.emplace_back(entry.key, entry.value);
  }
  // The accumulator iterates in hash-table order; the ranking below ties
  // every comparison off to ascending rid, so the output is deterministic
  // regardless of accumulation order.
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.blocked_spans != b.second.blocked_spans) {
      return a.second.blocked_spans > b.second.blocked_spans;
    }
    return a.first < b.first;
  });
  if (rows.size() > top_k) rows.resize(top_k);
  *out += common::Format("top %zu resource(s) by blocked wait spans:\n",
                         rows.size());
  for (const auto& [rid, c] : rows) {
    *out += common::Format(
        "  R%-6u spans=%zu open=%zu queued=%llut max=%llut tdr2=%zu\n", rid,
        c.blocked_spans, c.open,
        static_cast<unsigned long long>(c.queued_ticks),
        static_cast<unsigned long long>(c.max_queued), c.repositions);
  }
  return 0;
}

int CmdLatency(const std::vector<Event>& events, std::string* out) {
  std::vector<double> waits, passes, step1, step2;
  for (const Event& event : events) {
    switch (event.kind) {
      case EventKind::kWaitEnd: waits.push_back(event.value); break;
      case EventKind::kPassEnd: passes.push_back(event.value); break;
      case EventKind::kStep1: step1.push_back(event.value); break;
      case EventKind::kStep2: step2.push_back(event.value); break;
      default: break;
    }
  }
  *out += "latency percentiles:\n";
  AppendLatencyRow(out, "wait_time", waits, "ticks");
  AppendLatencyRow(out, "pass_duration", passes, "ns");
  AppendLatencyRow(out, "step1_duration", step1, "ns");
  AppendLatencyRow(out, "step2_duration", step2, "ns");
  return 0;
}

int CmdDiff(const std::vector<Event>& a, const std::vector<Event>& b,
            std::string* out) {
  uint64_t counts_a[obs::kNumEventKinds] = {};
  uint64_t counts_b[obs::kNumEventKinds] = {};
  for (const Event& event : a) ++counts_a[static_cast<size_t>(event.kind)];
  for (const Event& event : b) ++counts_b[static_cast<size_t>(event.kind)];
  *out += common::Format("%-18s %10s %10s %10s\n", "kind", "A", "B", "delta");
  *out += common::Format("%-18s %10zu %10zu %+10lld\n", "(events)", a.size(),
                         b.size(),
                         static_cast<long long>(b.size()) -
                             static_cast<long long>(a.size()));
  for (size_t i = 0; i < obs::kNumEventKinds; ++i) {
    if (counts_a[i] == 0 && counts_b[i] == 0) continue;
    *out += common::Format(
        "%-18s %10llu %10llu %+10lld\n",
        std::string(obs::ToString(static_cast<EventKind>(i))).c_str(),
        static_cast<unsigned long long>(counts_a[i]),
        static_cast<unsigned long long>(counts_b[i]),
        static_cast<long long>(counts_b[i]) -
            static_cast<long long>(counts_a[i]));
  }
  auto waits = [](const std::vector<Event>& events) {
    std::vector<double> out;
    for (const Event& event : events) {
      if (event.kind == EventKind::kWaitEnd) out.push_back(event.value);
    }
    return out;
  };
  const std::vector<double> wa = waits(a), wb = waits(b);
  *out += common::Format(
      "wait p50: %.1f -> %.1f ticks; wait p99: %.1f -> %.1f ticks\n",
      Percentile(wa, 50), Percentile(wb, 50), Percentile(wa, 99),
      Percentile(wb, 99));
  return 0;
}

// Loads `path`, reporting failures to `*err` with exit code 2.
int Load(const std::string& path, std::vector<Event>* events,
         std::string* err) {
  Result<std::vector<Event>> trace = obs::ReadTraceFile(path);
  if (!trace.ok()) {
    *err += std::string(trace.status().message());
    *err += "\n";
    return 2;
  }
  *events = std::move(trace).value();
  return 0;
}

// Loads a span JSONL file (the --spans-out stream), exit code 2 on error.
int LoadSpans(const std::string& path, std::vector<obs::Span>* spans,
              std::string* err) {
  Result<std::vector<obs::Span>> file = obs::ReadSpanFile(path);
  if (!file.ok()) {
    *err += std::string(file.status().message());
    *err += "\n";
    return 2;
  }
  *spans = std::move(file).value();
  return 0;
}

int CmdExportPerfetto(const std::vector<obs::Span>& spans, std::string* out) {
  *out += obs::ExportPerfettoJson(spans);
  return 0;
}

int CmdProfile(const std::vector<obs::Span>& spans, bool folded,
               std::string* out) {
  const obs::BlockedProfile profile = obs::BuildBlockedProfile(spans);
  *out += folded ? obs::FoldedStacks(profile) : obs::ProfileTable(profile);
  return 0;
}

constexpr char kUsage[] =
    "usage: twbg-trace <command> <trace.jsonl> [...]\n"
    "  summary <trace>        event counts, span and resolution totals\n"
    "  chains <trace>         wait-chain + cycle post-mortem reconstruction\n"
    "  hot <trace> [--top=K]  per-resource contention top-K\n"
    "  latency <trace>        wait/pass duration percentile tables\n"
    "  diff <a> <b>           compare two traces\n"
    "span commands (causal span JSONL, e.g. quickstart --spans-out):\n"
    "  export-perfetto <spans>    Chrome/Perfetto trace-event JSON\n"
    "  profile <spans> [--folded] blocked-time profile (table or\n"
    "                             collapsed stacks)\n";

}  // namespace

int RunTraceTool(const std::vector<std::string>& args, std::string* out,
                 std::string* err) {
  if (args.empty()) {
    *err += kUsage;
    return 1;
  }
  const std::string& cmd = args[0];
  if (cmd == "diff") {
    if (args.size() != 3) {
      *err += kUsage;
      return 1;
    }
    std::vector<Event> a, b;
    if (int rc = Load(args[1], &a, err); rc != 0) return rc;
    if (int rc = Load(args[2], &b, err); rc != 0) return rc;
    return CmdDiff(a, b, out);
  }
  if (cmd == "export-perfetto" || cmd == "profile") {
    if (args.size() < 2) {
      *err += kUsage;
      return 1;
    }
    bool folded = false;
    for (size_t i = 2; i < args.size(); ++i) {
      if (cmd == "profile" && args[i] == "--folded") {
        folded = true;
      } else {
        *err += common::Format("unknown option '%s'\n", args[i].c_str());
        return 1;
      }
    }
    std::vector<obs::Span> spans;
    if (int rc = LoadSpans(args[1], &spans, err); rc != 0) return rc;
    if (cmd == "export-perfetto") return CmdExportPerfetto(spans, out);
    return CmdProfile(spans, folded, out);
  }
  if (cmd != "summary" && cmd != "chains" && cmd != "hot" &&
      cmd != "latency") {
    *err += common::Format("unknown command '%s'\n", cmd.c_str());
    *err += kUsage;
    return 1;
  }
  if (args.size() < 2) {
    *err += kUsage;
    return 1;
  }
  size_t top_k = 10;
  for (size_t i = 2; i < args.size(); ++i) {
    if (args[i].rfind("--top=", 0) == 0) {
      top_k = static_cast<size_t>(
          std::strtoull(args[i].c_str() + 6, nullptr, 10));
      if (top_k == 0) top_k = 1;
    } else {
      *err += common::Format("unknown option '%s'\n", args[i].c_str());
      return 1;
    }
  }
  std::vector<Event> events;
  if (int rc = Load(args[1], &events, err); rc != 0) return rc;
  if (cmd == "summary") return CmdSummary(events, out);
  if (cmd == "chains") return CmdChains(events, out);
  if (cmd == "hot") return CmdHot(events, top_k, out);
  return CmdLatency(events, out);
}

}  // namespace twbg::tools
