/// \file main.cpp
/// \brief The end-to-end benchmark program.
///
///   perfbench --workload small_hot|pdn_fresh|pdn_refit --seed N
///             --seconds S --trace 0|1 [--work-dir DIR]
///
/// Builds the fleet, starts `mfti_serve` on it and drives one workload over
/// HTTP. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
/// same traffic untraced and traced, replays it in process, and prints the
/// per-layer metrics. The last line of standard output is one JSON object:
/// `{"correct", "attempted", "failed", "metrics"}`. WORKLOADS.md explains
/// the workloads and every metric.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "workload.hpp"

#ifndef PERFBENCH_SERVE_BINARY
#define PERFBENCH_SERVE_BINARY "mfti_serve"
#endif

namespace {

namespace fs = std::filesystem;
using perfbench::median;

struct Metric {
  std::string name;
  std::optional<double> value;  ///< nullopt: absent on this code
  std::string unit;
};

std::optional<double> median_of(const std::vector<double>& v) {
  if (v.empty()) return std::nullopt;
  return median(v);
}

/// Names the absent metrics on a line of their own, then prints the result
/// line, where every value is a number: an absent metric reads 0, the time
/// or count the run spent on a layer it did not find.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string absent;
  for (const Metric& m : metrics) {
    if (!m.value) absent += " " + m.name;
  }
  if (!absent.empty()) {
    std::printf("perfbench: absent on this code, printed as 0:%s\n",
                absent.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    std::snprintf(num, sizeof num, "%.17g", m.value.value_or(0.0));
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void report_failures(const char* what, const std::vector<std::string>& why) {
  for (const std::string& w : why) {
    std::fprintf(stderr, "perfbench: %s failure: %s\n", what, w.c_str());
  }
}

void summarize(const perfbench::Workload& w, const char* phase,
               const perfbench::PhaseResult& p) {
  const perfbench::EvalSummary e = perfbench::summarize_evals(p);
  std::printf(
      "perfbench: %s seed %llu %s: %zu evals in %.2f s, %zu of them in the "
      "%zu quietest seconds (%zu p99 chunks); %zu refits live; %zu set-up "
      "spawns; client_cpu_share %.3f; steal_share %.3f (per second: min "
      "%.3f, median %.3f, max %.3f); attempted %llu failed %llu\n",
      w.name.c_str(), static_cast<unsigned long long>(w.seed), phase,
      p.latency_s.size(), p.window_s, e.samples, e.seconds, e.chunks,
      p.fit_to_live_s.size(), p.setup_s.size(), p.client_cpu_share,
      p.steal_share, perfbench::quantile(p.steal_per_second, 0.0),
      median(p.steal_per_second), perfbench::quantile(p.steal_per_second, 1.0),
      static_cast<unsigned long long>(p.attempted),
      static_cast<unsigned long long>(p.failed));
  std::string refits;
  char num[32];
  for (const double s : p.fit_to_live_s) {
    std::snprintf(num, sizeof num, " %.3f", s);
    refits += num;
  }
  std::printf("perfbench: %s fit_to_live_s of each refit:%s\n", phase,
              refits.c_str());
  report_failures(phase, p.failures);
}

std::vector<Metric> end_to_end(const perfbench::PhaseResult& p) {
  std::vector<Metric> m;
  const perfbench::EvalSummary e = perfbench::summarize_evals(p);
  const auto when_evals = [&](double v) {
    return p.latency_s.empty() ? std::nullopt : std::optional(v);
  };
  m.push_back({"eval_p50_ms", when_evals(e.p50_ms), "ms"});
  m.push_back({"eval_p99_ms", when_evals(e.p99_ms), "ms"});
  m.push_back({"eval_rps", when_evals(e.rps), "1/s"});
  m.push_back({"fit_to_live_s", median_of(p.fit_to_live_s), "s"});
  m.push_back({"fit_err", median_of(p.fit_err), "1"});
  m.push_back({"server_rss_mb",
               p.rss_mb > 0.0 ? std::optional(p.rss_mb) : std::nullopt, "MB"});
  m.push_back({"setup_s", median_of(p.setup_s), "s"});
  return m;
}

std::optional<double> series(const perfbench::PhaseResult& p,
                             const std::string& name) {
  const auto it = p.server_metrics.find(name);
  if (it == p.server_metrics.end()) return std::nullopt;
  return it->second;
}

/// The stages `mfti_serve` reports in `"timings"` on every workload today,
/// each a metric of BENCHMARK.json. The others (`cache_hit`, `factorize`,
/// `coalesce_wait`) occur only with some cache traffic, so a workload
/// without it would print them as a constant 0; they and any stage the
/// server newly reports go on a summary line.
const char* const kMetricStages[] = {"queue", "admission", "lookup", "solve"};

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::vector<Metric> per_layer(const perfbench::PhaseResult& plain,
                              const perfbench::PhaseResult& traced,
                              const perfbench::ReplayResult& rp) {
  std::vector<Metric> m;
  const auto stage = [&](const std::string& name) {
    const auto it = traced.stage_us.find(name);
    return it == traced.stage_us.end() ? nullptr : &it->second;
  };
  const std::vector<double>* queue_stage = stage("queue");
  const std::optional<double> queue =
      queue_stage ? median_of(*queue_stage) : std::nullopt;
  const std::optional<double> parse = median_of(rp.parse_us);
  const std::optional<double> engine = median_of(rp.engine_us);
  const std::optional<double> encode = median_of(rp.encode_us);
  std::optional<double> residue;
  if (!traced.latency_s.empty()) {
    const double round_trip = median(traced.latency_s) * 1e6;
    const double attributed = queue.value_or(0.0) + parse.value_or(0.0) +
                              engine.value_or(0.0) + encode.value_or(0.0);
    residue = round_trip - attributed;
    std::printf(
        "perfbench: ledger (medians, us): round trip %.1f = queue %.1f + "
        "parse %.1f + engine %.1f + encode %.1f + residue %.1f\n",
        round_trip, queue.value_or(0.0), parse.value_or(0.0),
        engine.value_or(0.0), encode.value_or(0.0), round_trip - attributed);
  }
  m.push_back({"net.parse_us", parse, "us"});
  m.push_back({"net.encode_us", encode, "us"});
  m.push_back({"net.response_kb", median_of(rp.response_kb), "KB"});
  m.push_back({"net.queue_us", queue, "us"});
  m.push_back({"net.residue_us", residue, "us"});
  m.push_back({"serving.engine_us", engine, "us"});
  // Stage times are means over the requests that report the stage: the
  // server reports whole nanoseconds, and a median of sub-microsecond
  // stages can repeat exactly from one run to the next.
  for (const char* name : kMetricStages) {
    const std::vector<double>* values = stage(name);
    m.push_back({std::string("serving.stage.") + name + "_us",
                 values ? std::optional(mean(*values)) : std::nullopt, "us"});
  }
  for (const auto& [name, values] : traced.stage_us) {
    if (std::find(std::begin(kMetricStages), std::end(kMetricStages), name) ==
        std::end(kMetricStages)) {
      std::printf("perfbench: stage %s: mean %.3f us over %zu requests\n",
                  name.c_str(), mean(values), values.size());
    }
  }
  const auto hits = series(traced, "mfti_serving_cache_hits");
  const auto misses = series(traced, "mfti_serving_cache_misses");
  std::optional<double> hit_ratio;
  if (hits && misses && *hits + *misses > 0.0) {
    hit_ratio = *hits / (*hits + *misses);
  }
  m.push_back({"serving.cache_hit_ratio", hit_ratio, "1"});
  m.push_back({"serving.coalesced",
               series(traced, "mfti_serving_coalesced_total"), "count"});
  const auto cache_bytes = series(traced, "mfti_serving_cache_memory_bytes");
  m.push_back({"serving.cache_mb",
               cache_bytes ? std::optional(*cache_bytes / (1024.0 * 1024.0))
                           : std::nullopt,
               "MB"});
  m.push_back(
      {"serving.admin_publish_ms", median_of(traced.publish_ms), "ms"});
  m.push_back({"serving.live_wait_ms", median_of(traced.live_wait_ms), "ms"});
  m.push_back({"serving.verify_ms", median_of(rp.verify_ms), "ms"});
  m.push_back({"api.fit_s", median_of(rp.fit_s), "s"});
  m.push_back({"api.fit_residue_ms", median_of(rp.fit_residue_ms), "ms"});
  m.push_back({"loewner.tangential_ms", median_of(rp.tangential_ms), "ms"});
  m.push_back({"loewner.assembly_ms", median_of(rp.assembly_ms), "ms"});
  m.push_back({"loewner.realize_ms", median_of(rp.realize_ms), "ms"});
  m.push_back({"loewner.order", median_of(rp.order), "count"});
  m.push_back({"io.snapshot_save_ms", median_of(rp.save_ms), "ms"});
  m.push_back({"io.snapshot_kb", median_of(rp.snapshot_kb), "KB"});
  m.push_back({"bench.client_cpu_share", plain.client_cpu_share, "1"});
  // Both p50s over their own phase's quiet seconds, as eval_p50_ms is.
  std::optional<double> overhead;
  if (!plain.latency_s.empty() && !traced.latency_s.empty()) {
    overhead = perfbench::summarize_evals(traced).p50_ms /
               perfbench::summarize_evals(plain).p50_ms;
  }
  m.push_back({"obs.trace_overhead", overhead, "1"});
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload small_hot|pdn_fresh|"
               "pdn_refit --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string work_root = ".bench_build";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      work_root = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const auto workload =
      perfbench::Workload::named(workload_name, seed, seconds);
  if (!workload) return usage();
  const perfbench::Workload& w = *workload;

  const std::string run_dir =
      fs::absolute(work_root).string() + "/runs/" + w.name + "-" +
      std::to_string(seed) + "-" + std::to_string(::getpid());
  int code = 0;
  try {
    fs::remove_all(run_dir);
    fs::create_directories(run_dir);
    const perfbench::Fleet fleet =
        perfbench::build_fleet(run_dir + "/fleet");
    perfbench::ResponseChecker checker;
    for (const perfbench::FleetModel& m : fleet.models) {
      checker.add_version(m.name, m.version, m.system);
    }
    const std::string serve = PERFBENCH_SERVE_BINARY;
    const perfbench::PhaseResult plain =
        perfbench::run_phase(w, fleet, checker, serve, run_dir, false);
    summarize(w, "untraced", plain);
    if (trace == 0) {
      // Every end-to-end metric is measured on every workload; a missing
      // one means the run measured nothing.
      const std::vector<Metric> metrics = end_to_end(plain);
      const bool complete =
          std::all_of(metrics.begin(), metrics.end(),
                      [](const Metric& m) { return m.value.has_value(); });
      print_result(plain.failed == 0 && complete, plain.attempted,
                   plain.failed, metrics);
    } else {
      perfbench::PhaseResult traced =
          perfbench::run_phase(w, fleet, checker, serve, run_dir, true);
      summarize(w, "traced", traced);
      perfbench::ReplayResult rp =
          perfbench::replay(w, fleet, checker, run_dir);
      report_failures("replay", rp.failures);
      std::printf(
          "perfbench: replay: %zu requests, %zu refits, %zu fit pairs\n",
          rp.engine_us.size(), rp.order.size(), rp.fit_s.size());
      std::vector<perfbench::SpanLog> spans = std::move(traced.spans);
      spans.push_back(std::move(rp.spans));
      const std::string trace_dir = fs::absolute(work_root).string() +
                                    "/traces";
      fs::create_directories(trace_dir);
      const std::string trace_file = trace_dir + "/" + w.name + "-seed" +
                                     std::to_string(seed) + ".jsonl";
      perfbench::write_spans(trace_file, spans);
      std::printf("perfbench: spans written to %s\n", trace_file.c_str());
      const std::uint64_t attempted =
          plain.attempted + traced.attempted + rp.attempted;
      const std::uint64_t failed = plain.failed + traced.failed + rp.failed;
      print_result(failed == 0, attempted, failed,
                   per_layer(plain, traced, rp));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    code = 1;
  }
  std::error_code ignored;
  fs::remove_all(run_dir, ignored);
  return code;
}
