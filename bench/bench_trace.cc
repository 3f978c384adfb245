// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Causal-span tracer overhead — the acceptance run for src/obs/span.h.
// Reuses the steady-state table from bench_steady_state (large, mostly
// idle, a small churn fraction between passes) and times the incremental
// detection pass three ways:
//
//   baseline    no tracer attached at all
//   tracer-off  a SpanTracer wired into the lock manager and detector but
//               with no sinks subscribed — every emission call must
//               short-circuit on the active() check, so this overhead is
//               the "zero overhead with no sink" claim and must be ~0
//   tracer-on   the same tracer with a SpanCollectorSink subscribed, i.e.
//               every pass/step1/step2 span is materialised and delivered
//
// The three run interleaved pass by pass on twin tables with one mutation
// stream (bench/steady_twins.h), so host drift does not decide the gates.
// Overheads are reported relative to the baseline, both as the ratio of
// mean passes and paired (the median same-table ratio), and written
// to BENCH_trace.json; the CI perf-smoke job gates the paired tracer-on
// overhead at 3% and the paired tracer-off overhead at the noise floor
// (see .github/workflows/ci.yml).
//
// Usage: bench_trace [resources] [mutations] [passes] [out.json]
//   resources  table size (default 10000)
//   mutations  resources mutated before each pass (default 100, i.e. 1%)
//   passes     timed passes per mode (default 30)
//   out.json   output path (default BENCH_trace.json in the cwd)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/steady_twins.h"
#include "common/macros.h"
#include "obs/span.h"
#include "obs/span_sinks.h"

using namespace twbg;

int main(int argc, char** argv) {
  size_t resources = 10000;
  size_t mutations = 100;
  size_t passes = 30;
  std::string out_path = "BENCH_trace.json";
  if (argc > 1) resources = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) mutations = static_cast<size_t>(std::atoll(argv[2]));
  if (argc > 3) passes = static_cast<size_t>(std::atoll(argv[3]));
  if (argc > 4) out_path = argv[4];
  TWBG_CHECK(resources >= 1 && mutations >= 1 && passes >= 1);
  TWBG_CHECK(mutations <= resources);

  std::printf("span-tracer overhead: %zu resources, %zu mutated between "
              "passes (%.2f%%), %zu passes per mode\n",
              resources, mutations,
              100.0 * static_cast<double>(mutations) /
                  static_cast<double>(resources),
              passes);

  // Tracer attached, no sinks: active() is false, every Open/Close call
  // short-circuits before allocating a span.
  obs::SpanTracer idle_tracer;
  // Tracer with a collector sink: every span is materialised, delivered
  // and retained (passes * {pass, step1, step2} plus churn wait spans).
  obs::SpanTracer tracer;
  obs::SpanCollectorSink collector;
  tracer.Subscribe(&collector);

  // A traced twin has its tracer wired into both the lock manager and the
  // detector, exactly as a host would; the lock manager's is attached
  // after the bulk build so setup-phase grants stay untraced.  The table
  // never deadlocks, so the timed RunPass window sees exactly the
  // pass/step1/step2 spans (wait spans fire in the untimed churn).
  core::DetectorOptions options;
  options.incremental_build = true;
  core::DetectorOptions off_options = options;
  off_options.span_tracer = &idle_tracer;
  core::DetectorOptions on_options = options;
  on_options.span_tracer = &tracer;
  bench::SteadyTwin baseline(options);
  bench::SteadyTwin off(off_options, nullptr, &idle_tracer);
  bench::SteadyTwin on(on_options, nullptr, &tracer);
  const std::vector<bench::SteadyTwin*> twins = {&baseline, &off, &on};
  bench::BuildTwins(twins, resources, /*bulk=*/16);
  bench::TimeInterleaved(twins, resources, mutations, passes);
  for (const bench::SteadyTwin* twin : twins) {
    TWBG_CHECK(twin->last.cycles_detected == 0);
  }
  const double baseline_ns = baseline.ns_per_pass();
  const double off_ns = off.ns_per_pass();
  const double off_overhead = off_ns / baseline_ns - 1.0;
  const double on_ns = on.ns_per_pass();
  const double on_overhead = on_ns / baseline_ns - 1.0;
  const double off_paired = bench::PairedOverhead(off, baseline, twins.size());
  const double on_paired = bench::PairedOverhead(on, baseline, twins.size());
  TWBG_CHECK(collector.Count(obs::SpanKind::kPass) >= passes);
  TWBG_CHECK(tracer.dropped_closes() == 0);

  std::printf("  baseline:   %12.0f ns/pass\n", baseline_ns);
  std::printf("  tracer-off: %12.0f ns/pass (overhead=%+.2f%%, "
              "paired=%+.2f%%)\n",
              off_ns, off_overhead * 100.0, off_paired * 100.0);
  std::printf("  tracer-on:  %12.0f ns/pass (overhead=%+.2f%%, "
              "paired=%+.2f%%, %zu spans)\n",
              on_ns, on_overhead * 100.0, on_paired * 100.0,
              collector.spans().size());

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"span_tracer_overhead\",\n"
               "  \"resources\": %zu,\n"
               "  \"mutations_per_pass\": %zu,\n"
               "  \"passes\": %zu,\n"
               "  \"baseline_ns_per_pass\": %.1f,\n"
               "  \"tracer_off_ns_per_pass\": %.1f,\n"
               "  \"tracer_off_overhead\": %.4f,\n"
               "  \"tracer_off_overhead_paired\": %.4f,\n"
               "  \"tracer_on_ns_per_pass\": %.1f,\n"
               "  \"tracer_on_overhead\": %.4f,\n"
               "  \"tracer_on_overhead_paired\": %.4f,\n"
               "  \"spans_recorded\": %zu\n"
               "}\n",
               resources, mutations, passes, baseline_ns, off_ns,
               off_overhead, off_paired, on_ns, on_overhead, on_paired,
               collector.spans().size());
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
