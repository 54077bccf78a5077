/// \file http_metrics.hpp
/// \brief Telemetry of the serving front: per-endpoint request counters by
/// HTTP status and log-bucketed latency histograms, rendered as the
/// Prometheus text exposition format by `GET /metrics`.
///
/// Counters are plain mutex-guarded tallies — the serving hot path records
/// one observation per request, far from contention-critical — and the
/// renderer adds the live-model count, the registry's verification gate
/// and the per-stage trace histograms, so one scrape shows both the HTTP
/// edge and the evaluation core.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/trace.hpp"

namespace mfti::serving {
struct RegistryVerifyStats;
}  // namespace mfti::serving

namespace mfti::net {

/// Fixed log-spaced latency buckets (seconds), upper bounds inclusive;
/// the last implicit bucket is +Inf.
inline constexpr std::array<double, 10> kLatencyBucketsSeconds = {
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0};

/// Mutable counters of one (endpoint) label set.
struct EndpointMetrics {
  std::map<int, std::uint64_t> by_status;  ///< requests_total{code=...}
  std::array<std::uint64_t, kLatencyBucketsSeconds.size() + 1> buckets{};
  std::uint64_t observations = 0;
  double sum_seconds = 0.0;
};

class HttpMetrics {
 public:
  /// Record one served request on `endpoint` ("eval", "models", ...).
  void observe(const std::string& endpoint, int status, double seconds);

  /// Admission-control tallies (no latency attached).
  void count_shed() { add_counter(&shed_total_); }
  void count_rate_limited() { add_counter(&rate_limited_total_); }
  void count_deadline_expired() { add_counter(&deadline_expired_total_); }

  /// Render everything as Prometheus text format v0.0.4, including the
  /// number of live models passed in by the front (`mfti_serving_models`).
  std::string render(std::size_t live_models) const;

  /// Same, plus the registry's verification-gate series
  /// (`mfti_registry_verify_*` and the quarantine gauge).
  std::string render(std::size_t live_models,
                     const serving::RegistryVerifyStats& verify) const;

  /// Full scrape: everything above plus the tracing layer's per-stage
  /// latency histograms (`mfti_stage_seconds{stage=...}`, the queue-wait
  /// series among them).
  std::string render(std::size_t live_models,
                     const serving::RegistryVerifyStats& verify,
                     const obs::StageSnapshot& stages) const;

 private:
  void add_counter(std::uint64_t* counter) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++*counter;
  }

  mutable std::mutex mutex_;
  std::map<std::string, EndpointMetrics> endpoints_;
  std::uint64_t shed_total_ = 0;
  std::uint64_t rate_limited_total_ = 0;
  std::uint64_t deadline_expired_total_ = 0;
};

}  // namespace mfti::net
