#include "net/http_metrics.hpp"

#include <cstdio>

#include "obs/build_info.hpp"
#include "serving/model_registry.hpp"

namespace mfti::net {

namespace {

void append_value(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out->append(buf);
}

void append_line(std::string* out, const std::string& name,
                 const std::string& labels, double value) {
  out->append(name);
  if (!labels.empty()) {
    out->push_back('{');
    out->append(labels);
    out->push_back('}');
  }
  out->push_back(' ');
  append_value(out, value);
  out->push_back('\n');
}

/// Prometheus label-value escaping (text format v0.0.4): backslash,
/// double quote and newline. Model names are caller-chosen strings, so
/// the exporter cannot assume they are label-safe.
std::string escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out.append("\\n");
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void HttpMetrics::observe(const std::string& endpoint, int status,
                          double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  EndpointMetrics& m = endpoints_[endpoint];
  ++m.by_status[status];
  ++m.observations;
  m.sum_seconds += seconds;
  std::size_t bucket = kLatencyBucketsSeconds.size();
  for (std::size_t i = 0; i < kLatencyBucketsSeconds.size(); ++i) {
    if (seconds <= kLatencyBucketsSeconds[i]) {
      bucket = i;
      break;
    }
  }
  ++m.buckets[bucket];
}

std::string HttpMetrics::render(std::size_t live_models) const {
  std::string out;
  out.reserve(4096);
  // Identity of the running binary: version, compiler, and the SIMD
  // dispatch level actually active in this process (value is always 1 —
  // the information lives in the labels, the Prometheus convention for
  // build metadata).
  const obs::BuildInfo build = obs::build_info();
  out.append(
      "# HELP mfti_build_info Identity of the serving binary.\n"
      "# TYPE mfti_build_info gauge\n");
  append_line(&out, "mfti_build_info",
              "version=\"" + escape_label(build.version) +
                  "\",compiler=\"" + escape_label(build.compiler) +
                  "\",simd=\"" + escape_label(build.simd) + "\"",
              1.0);
  out.append(
      "# HELP mfti_http_requests_total Served requests by endpoint and "
      "status.\n# TYPE mfti_http_requests_total counter\n");
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [endpoint, m] : endpoints_) {
    for (const auto& [status, count] : m.by_status) {
      append_line(&out, "mfti_http_requests_total",
                  "endpoint=\"" + endpoint + "\",code=\"" +
                      std::to_string(status) + "\"",
                  static_cast<double>(count));
    }
  }
  out.append(
      "# HELP mfti_http_request_seconds Request latency by endpoint.\n"
      "# TYPE mfti_http_request_seconds histogram\n");
  for (const auto& [endpoint, m] : endpoints_) {
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kLatencyBucketsSeconds.size(); ++i) {
      cumulative += m.buckets[i];
      char le[32];
      std::snprintf(le, sizeof le, "%g", kLatencyBucketsSeconds[i]);
      append_line(&out, "mfti_http_request_seconds_bucket",
                  "endpoint=\"" + endpoint + "\",le=\"" + le + "\"",
                  static_cast<double>(cumulative));
    }
    cumulative += m.buckets[kLatencyBucketsSeconds.size()];
    append_line(&out, "mfti_http_request_seconds_bucket",
                "endpoint=\"" + endpoint + "\",le=\"+Inf\"",
                static_cast<double>(cumulative));
    append_line(&out, "mfti_http_request_seconds_sum",
                "endpoint=\"" + endpoint + "\"", m.sum_seconds);
    append_line(&out, "mfti_http_request_seconds_count",
                "endpoint=\"" + endpoint + "\"",
                static_cast<double>(m.observations));
  }
  out.append(
      "# HELP mfti_http_shed_total Connections shed by admission "
      "control (queue full).\n# TYPE mfti_http_shed_total counter\n");
  append_line(&out, "mfti_http_shed_total", "",
              static_cast<double>(shed_total_));
  out.append(
      "# HELP mfti_http_rate_limited_total Requests refused by the "
      "per-client rate limit.\n"
      "# TYPE mfti_http_rate_limited_total counter\n");
  append_line(&out, "mfti_http_rate_limited_total", "",
              static_cast<double>(rate_limited_total_));
  out.append(
      "# HELP mfti_http_deadline_expired_total Requests whose deadline "
      "expired before completion.\n"
      "# TYPE mfti_http_deadline_expired_total counter\n");
  append_line(&out, "mfti_http_deadline_expired_total", "",
              static_cast<double>(deadline_expired_total_));

  out.append(
      "# HELP mfti_serving_models Models with a live version.\n"
      "# TYPE mfti_serving_models gauge\n");
  append_line(&out, "mfti_serving_models", "",
              static_cast<double>(live_models));
  return out;
}

std::string HttpMetrics::render(
    std::size_t live_models,
    const serving::RegistryVerifyStats& verify) const {
  std::string out = render(live_models);
  out.append(
      "# HELP mfti_registry_verify_pass_total Publishes accepted by the "
      "verification gate.\n"
      "# TYPE mfti_registry_verify_pass_total counter\n");
  append_line(&out, "mfti_registry_verify_pass_total", "",
              static_cast<double>(verify.verify_pass));
  out.append(
      "# HELP mfti_registry_verify_fail_total Publishes refused by the "
      "verification gate (quarantined) plus refused promotes.\n"
      "# TYPE mfti_registry_verify_fail_total counter\n");
  append_line(&out, "mfti_registry_verify_fail_total", "",
              static_cast<double>(verify.verify_fail));
  out.append(
      "# HELP mfti_registry_quarantined_models Model versions currently "
      "in quarantine.\n"
      "# TYPE mfti_registry_quarantined_models gauge\n");
  append_line(&out, "mfti_registry_quarantined_models", "",
              static_cast<double>(verify.quarantined));
  out.append(
      "# HELP mfti_registry_verify_check_seconds_total Cumulative wall "
      "time per verification check.\n"
      "# TYPE mfti_registry_verify_check_seconds_total counter\n");
  for (const serving::RegistryVerifyStats::Check& check : verify.checks) {
    const std::string labels =
        "check=\"" + escape_label(check.name) + "\"";
    append_line(&out, "mfti_registry_verify_check_seconds_total", labels,
                check.seconds_total);
    append_line(&out, "mfti_registry_verify_check_runs_total", labels,
                static_cast<double>(check.runs));
  }
  return out;
}

std::string HttpMetrics::render(std::size_t live_models,
                                const serving::RegistryVerifyStats& verify,
                                const obs::StageSnapshot& stages) const {
  std::string out = render(live_models, verify);
  out.append(
      "# HELP mfti_stage_seconds Per-stage latency of the serving path "
      "(trace spans).\n# TYPE mfti_stage_seconds histogram\n");
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const obs::StageSnapshot::Series& series = stages.stages[s];
    const std::string stage =
        std::string("stage=\"") +
        obs::stage_name(static_cast<obs::Stage>(s)) + "\"";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < obs::kStageBucketsSeconds.size(); ++b) {
      cumulative += series.buckets[b];
      char le[32];
      std::snprintf(le, sizeof le, "%g", obs::kStageBucketsSeconds[b]);
      append_line(&out, "mfti_stage_seconds_bucket",
                  stage + ",le=\"" + le + "\"",
                  static_cast<double>(cumulative));
    }
    cumulative += series.buckets[obs::kStageBucketsSeconds.size()];
    append_line(&out, "mfti_stage_seconds_bucket", stage + ",le=\"+Inf\"",
                static_cast<double>(cumulative));
    append_line(&out, "mfti_stage_seconds_sum", stage, series.sum_seconds);
    append_line(&out, "mfti_stage_seconds_count", stage,
                static_cast<double>(series.observations));
  }
  return out;
}

}  // namespace mfti::net
