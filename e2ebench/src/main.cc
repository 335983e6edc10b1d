// gms_e2ebench: the end-to-end benchmark program (see ../README.md).
//
//   gms_e2ebench --workload <batch_dense|serve_vc|apps_hypercut>
//                --seed <n> --seconds <s> --trace <0|1> --input-dir <dir>
//                [--engine-threads <t>]
//
// Generates the workload's input from the seed, runs whole rounds for the
// given number of seconds, checks every answer, and prints one JSON object
// as the last line of stdout: the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1), with the number of
// operations attempted and failed. A traced run also writes its spans and
// counters to <input-dir>/trace-<workload>-<seed>.json. --engine-threads
// sets batch_dense's ingest/extraction threads (default 2; 1 gives the
// single-threaded baseline).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace e2e {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metrics of a traced run, in BENCHMARK.json order. A workload
// that never reaches a layer reports 0 for it.
constexpr Metric kPerLayer[] = {
    {"workload.open_s", "s"},
    {"workload.decode_s", "s"},
    {"connectivity.ingest_s", "s"},
    {"connectivity.escalated_vertices", "count"},
    {"connectivity.extract_s", "s"},
    {"connectivity.rounds_run", "count"},
    {"connectivity.summed_words", "count"},
    {"connectivity.sample_attempts", "count"},
    {"connectivity.edges_per_sample", "ratio"},
    {"connectivity.merge_s", "s"},
    {"connectivity.clear_s", "s"},
    {"connectivity.skeleton_extract_s", "s"},
    {"stream.plane_s", "s"},
    {"stream.plane_consumers", "count"},
    {"vertexconn.extract_s", "s"},
    {"vertexconn.merge_s", "s"},
    {"vertexconn.sparse_exact_forests", "count"},
    {"vertexconn.union_edges", "count"},
    {"vertexconn.disconnects_us", "us"},
    {"serve.ingest_wait_s", "s"},
    {"serve.epochs_merged", "count"},
    {"serve.cache_hits", "count"},
    {"serve.cache_rebuilds", "count"},
    {"serve.disconnects_us", "us"},
    {"serve.connected_us", "us"},
    {"serve.is_bridge_us", "us"},
    {"serve.count_ops_us", "us"},
    {"serve.frame_overhead_us", "us"},
    {"serve.component_index_s", "s"},
    {"serve.bridge_index_s", "s"},
    {"serve.flush_s", "s"},
    {"serve.prefix_lag_updates", "updates"},
    {"apps.two_edge.ingest_s", "s"},
    {"apps.mincut.ingest_s", "s"},
    {"apps.two_edge.query_s", "s"},
    {"apps.mincut.query_s", "s"},
    {"apps.mincut.levels_queried", "count"},
    {"apps.reserved_mb", "MiB"},
    {"exact.mincut_s", "s"},
    {"sketch.space_mb", "MiB"},
    {"sketch.reserved_mb", "MiB"},
    {"proc.rss_after_ingest_mb", "MiB"},
    {"proc.rss_after_answer_mb", "MiB"},
    {"proc.ingest_sys_s", "s"},
    {"proc.ingest_minflt", "count"},
    {"proc.answer_sys_s", "s"},
    {"proc.answer_minflt", "count"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "gms_e2ebench: %s\nusage: gms_e2ebench --workload "
               "<batch_dense|serve_vc|apps_hypercut> --seed <n> --seconds <s> "
               "--trace <0|1> --input-dir <dir> [--engine-threads <t>]\n",
               why);
  std::exit(2);
}

void PrintMetric(bool* first, const char* name, double value,
                 const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name, value, unit);
  *first = false;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  RunContext ctx;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || ctx.seconds < 0) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0   ? 1
              : std::strcmp(value, "0") == 0 ? 0
                                             : -1;
    } else if (flag == "--input-dir") {
      ctx.input_dir = value;
    } else if (flag == "--engine-threads") {
      ctx.engine_threads = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || ctx.engine_threads < 1 ||
          ctx.engine_threads > 64) {
        Usage("--engine-threads must be in [1, 64]");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) Usage("--seed must be a whole number");
  if (trace < 0) Usage("--trace must be 0 or 1");
  if (ctx.input_dir.empty()) Usage("--input-dir is required");
  void (*run)(const RunContext&, std::vector<RoundResult>*) = nullptr;
  if (ctx.workload == "batch_dense") run = RunBatchDense;
  if (ctx.workload == "serve_vc") run = RunServeVc;
  if (ctx.workload == "apps_hypercut") run = RunAppsHypercut;
  if (run == nullptr) Usage("unknown --workload");

  if (!SelfTest()) return 3;

  Tracer tracer(trace == 1);
  Checker checker;
  ctx.tracer = &tracer;
  ctx.checker = &checker;
  std::vector<RoundResult> rounds;
  run(ctx, &rounds);

  std::fprintf(stderr, "%s seed %llu: %zu rounds, %llu operations checked\n",
               ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
               rounds.size(),
               static_cast<unsigned long long>(checker.attempted()));
  // End-to-end figures: medians over rounds -- over request batches for
  // the query rate -- so that a burst of host load landing on one round or
  // batch does not move them; latency quantiles over every request of every
  // round. A traced run reports them on stderr only, to compare
  // with an untraced run: the difference is the tracing overhead.
  std::vector<double> setup, ingest, answer, qps, latencies;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    ingest.push_back(r.IngestRate());
    answer.push_back(r.answer_s);
    for (double rate : r.BatchRates()) qps.push_back(rate);
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
  }
  const double p50 = Quantile(&latencies, 0.50);
  const double p99 = Quantile(&latencies, 0.99);
  const struct {
    const char* name;
    double value;
    const char* unit;
  } end_to_end[] = {
      {"setup_s", Median(setup), "s"},
      {"ingest_ups", Median(ingest), "updates/s"},
      {"answer_s", Median(answer), "s"},
      {"queries_per_s", Median(qps), "1/s"},
      {"query_p50_us", p50, "us"},
      {"query_p99_us", p99, "us"},
      {"peak_rss_mb", ProcUsage::Now().maxrss_mib, "MiB"},
  };
  const std::string trace_path = ctx.input_dir + "/trace-" + ctx.workload +
                                 "-" + std::to_string(ctx.seed) + ".json";
  if (trace == 1 && !tracer.WriteJson(trace_path, ctx.workload, ctx.seed)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checker.wrong() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.failed()));
  bool first = true;
  if (trace == 1) {
    std::fprintf(stderr, "traced end-to-end:");
    for (const auto& m : end_to_end) {
      std::fprintf(stderr, " %s=%.6g", m.name, m.value);
    }
    std::fprintf(stderr, "\n");
    for (const Metric& m : kPerLayer) {
      PrintMetric(&first, m.name, tracer.CounterMedian(m.name), m.unit);
    }
  } else {
    for (const auto& m : end_to_end) {
      PrintMetric(&first, m.name, m.value, m.unit);
    }
  }
  std::printf("}}\n");
  return 0;
}
