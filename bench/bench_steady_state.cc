// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Steady-state incremental-build experiment — the acceptance run for the
// GraphBuilder edge cache.  Builds a large mostly-idle table, mutates a
// small fraction of the resources between periodic passes, and times the
// pass with the incremental cache against a from-scratch rebuild of the
// same pass.  Results (ns/pass for both modes, the speedup, and the
// cache counters of the final incremental pass) are written as a JSON
// object so CI can archive them.
//
// Two more configurations re-time the incremental mode: one with an
// event bus and a LatencyObserver attached, yielding the per-pass Step-1 /
// Step-2 breakdown (and the observability overhead, which must stay
// small), and one with the always-on forensics flight recorder alone,
// whose marginal overhead over the bare incremental pass the CI perf-smoke
// job gates at 3% (`recorder_overhead_paired`, the median same-table
// ratio; `recorder_overhead` is the ratio of mean passes).  The three
// incremental configurations run interleaved pass by pass on twin tables
// with one mutation stream (bench/steady_twins.h), so host drift does not
// decide that gate; the from-scratch mode runs after them on its own twin
// (its whole-table passes would flush the others' caches).
//
// Usage: bench_steady_state [resources] [mutations] [passes] [out.json]
//                           [events.jsonl]
//   resources    table size (default 10000)
//   mutations    resources mutated before each pass (default 100, i.e. 1%)
//   passes       timed passes per mode (default 30)
//   out.json     output path (default BENCH_detector.json in the cwd)
//   events.jsonl optional: stream the instrumented run's events as JSONL

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/steady_twins.h"
#include "common/macros.h"
#include "obs/flight_recorder.h"
#include "obs/observer.h"
#include "obs/sinks.h"

using namespace twbg;

int main(int argc, char** argv) {
  size_t resources = 10000;
  size_t mutations = 100;
  size_t passes = 30;
  std::string out_path = "BENCH_detector.json";
  std::string events_path;
  if (argc > 1) resources = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) mutations = static_cast<size_t>(std::atoll(argv[2]));
  if (argc > 3) passes = static_cast<size_t>(std::atoll(argv[3]));
  if (argc > 4) out_path = argv[4];
  if (argc > 5) events_path = argv[5];
  TWBG_CHECK(resources >= 1 && mutations >= 1 && passes >= 1);
  TWBG_CHECK(mutations <= resources);

  std::printf("steady-state detection pass: %zu resources, %zu mutated "
              "between passes (%.2f%%), %zu passes per mode\n",
              resources, mutations,
              100.0 * static_cast<double>(mutations) /
                  static_cast<double>(resources),
              passes);

  // Instrumented configuration: the incremental pass with the event bus,
  // a LatencyObserver and (optionally) a JSONL exporter attached.  The
  // per-pass Step-1/Step-2 breakdown comes from the observer's histograms.
  // The bus sees the steady-state churn (grants/releases between passes);
  // the table never deadlocks, so no lock events fire inside the timed
  // RunPass window and the overhead measurement stays clean.
  obs::EventBus bus;
  obs::LatencyObserver observer;
  bus.Subscribe(&observer);
  std::unique_ptr<obs::JsonlSink> jsonl;
  if (!events_path.empty()) {
    Result<std::unique_ptr<obs::JsonlSink>> sink =
        obs::JsonlSink::Open(events_path);
    if (!sink.ok()) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   events_path.c_str());
      return 1;
    }
    jsonl = std::move(*sink);
    bus.Subscribe(jsonl.get());
  }
  // Flight-recorder configuration: the forensics ring alone on the bus, as
  // it would ship in production ("always cheap").  Its overhead is
  // measured against the bare incremental pass.
  obs::EventBus recorder_bus;
  obs::FlightRecorder recorder;
  recorder_bus.Subscribe(&recorder);

  core::DetectorOptions bare_options;
  bare_options.incremental_build = true;
  core::DetectorOptions instrumented_options = bare_options;
  instrumented_options.event_bus = &bus;
  core::DetectorOptions recorder_options = bare_options;
  recorder_options.event_bus = &recorder_bus;
  bench::SteadyTwin incremental(bare_options);
  bench::SteadyTwin instrumented(instrumented_options, &bus);
  bench::SteadyTwin recorded(recorder_options, &recorder_bus);
  const std::vector<bench::SteadyTwin*> twins = {&incremental, &instrumented,
                                                 &recorded};
  bench::BuildTwins(twins, resources, /*bulk=*/16);
  // The warm-up pass is a full sweep; keep it out of the histograms so
  // the reported step means describe steady-state passes only.
  observer.Reset();
  bench::TimeInterleaved(twins, resources, mutations, passes);
  core::DetectorOptions scratch_options;
  scratch_options.incremental_build = false;
  bench::SteadyTwin scratch(scratch_options);
  bench::BuildTwins({&scratch}, resources, /*bulk=*/16);
  bench::TimeInterleaved({&scratch}, resources, mutations, passes);

  // Every mode must agree on what the pass saw — the table has no
  // deadlocks, so any cycle or abort means a build bug.
  for (const bench::SteadyTwin* twin :
       {&incremental, &instrumented, &recorded, &scratch}) {
    TWBG_CHECK(twin->last.cycles_detected == 0);
  }
  const core::ResolutionReport& incremental_report = incremental.last;
  const double incremental_ns = incremental.ns_per_pass();
  const double scratch_ns = scratch.ns_per_pass();
  const double speedup = scratch_ns / incremental_ns;
  const double instrumented_ns = instrumented.ns_per_pass();
  const double step1_ns = observer.step1_ns().mean();
  const double step2_ns = observer.step2_ns().mean();
  const double obs_overhead = instrumented_ns / incremental_ns - 1.0;
  const double recorder_ns = recorded.ns_per_pass();
  const double recorder_overhead = recorder_ns / incremental_ns - 1.0;
  const double recorder_paired =
      bench::PairedOverhead(recorded, incremental, twins.size());

  std::printf("  incremental: %12.0f ns/pass (dirty=%zu cached=%zu "
              "edges-rebuilt=%zu edges-reused=%zu)\n",
              incremental_ns, incremental_report.num_dirty_resources,
              incremental_report.num_cached_resources,
              incremental_report.edges_rebuilt,
              incremental_report.edges_reused);
  std::printf("  scratch:     %12.0f ns/pass\n", scratch_ns);
  std::printf("  speedup:     %12.2fx\n", speedup);
  std::printf("  instrumented:%12.0f ns/pass (step1=%.0f step2=%.0f, "
              "overhead=%.1f%%, %llu events)\n",
              instrumented_ns, step1_ns, step2_ns, obs_overhead * 100.0,
              static_cast<unsigned long long>(observer.total()));
  std::printf("  recorder:    %12.0f ns/pass (overhead=%.1f%%, "
              "paired=%.1f%%, %llu events in a %zu-slot ring)\n",
              recorder_ns, recorder_overhead * 100.0, recorder_paired * 100.0,
              static_cast<unsigned long long>(recorder.recorded()),
              recorder.capacity());
  if (jsonl != nullptr) {
    jsonl->Flush();
    std::printf("  events:      %llu line(s) -> %s\n",
                static_cast<unsigned long long>(jsonl->lines_written()),
                events_path.c_str());
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"steady_state_detection_pass\",\n"
               "  \"resources\": %zu,\n"
               "  \"mutations_per_pass\": %zu,\n"
               "  \"mutated_fraction\": %.6f,\n"
               "  \"passes\": %zu,\n"
               "  \"incremental_ns_per_pass\": %.1f,\n"
               "  \"scratch_ns_per_pass\": %.1f,\n"
               "  \"speedup\": %.3f,\n"
               "  \"dirty_resources\": %zu,\n"
               "  \"cached_resources\": %zu,\n"
               "  \"edges_rebuilt\": %zu,\n"
               "  \"edges_reused\": %zu,\n"
               "  \"instrumented_ns_per_pass\": %.1f,\n"
               "  \"step1_ns_per_pass\": %.1f,\n"
               "  \"step2_ns_per_pass\": %.1f,\n"
               "  \"observer_overhead\": %.4f,\n"
               "  \"pass_events\": %llu,\n"
               "  \"recorder_ns_per_pass\": %.1f,\n"
               "  \"recorder_overhead\": %.4f,\n"
               "  \"recorder_overhead_paired\": %.4f\n"
               "}\n",
               resources, mutations,
               static_cast<double>(mutations) / static_cast<double>(resources),
               passes, incremental_ns, scratch_ns, speedup,
               incremental_report.num_dirty_resources,
               incremental_report.num_cached_resources,
               incremental_report.edges_rebuilt,
               incremental_report.edges_reused, instrumented_ns, step1_ns,
               step2_ns, obs_overhead,
               static_cast<unsigned long long>(observer.total()),
               recorder_ns, recorder_overhead, recorder_paired);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
