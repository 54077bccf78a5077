/// \file trace.hpp
/// \brief Request tracing of the serving path: named per-stage spans on a
/// monotonic clock, a bounded ring of completed traces with preferential
/// retention of slow ones, and lock-free per-stage latency histograms.
///
/// One `TraceContext` accompanies one request from the moment it leaves
/// the ready queue to the moment its response is built: the HTTP front
/// records the queue and admission stages, and `serving::ServingEngine`
/// records the registry lookup and one solve per distinct point.
/// Completed traces land in the `TraceCollector`'s ring buffer and feed
/// the `mfti_stage_seconds` Prometheus histograms, so one `/metrics`
/// scrape localizes where time goes fleet-wide and `GET /v1/admin/trace`
/// shows individual requests.
///
/// Cost model: when the collector is disabled (`MFTI_TRACE=0`) `begin()`
/// returns null and every instrumented site reduces to one pointer check —
/// no clock reads, no allocation, no locking. When enabled, span recording
/// takes a per-context mutex (contended only by the pool workers of one
/// request) and histogram updates are lock-free atomics; only trace
/// completion takes the collector-wide ring lock, once per request.
///
/// ```cpp
/// obs::TraceCollector collector({.slow_threshold_ms = 50});
/// auto trace = collector.begin(request_id);           // null when disabled
/// { auto span = trace->span(obs::Stage::Lookup); ... }
/// collector.finish(trace, "eval", 200, total_seconds);
/// ```

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mfti::obs {

/// The span taxonomy of the serving path (docs/observability.md describes
/// where each stage is measured). Values index the histogram arrays.
enum class Stage : std::uint8_t {
  Queue = 0,  ///< ready-queue wait: (re)enqueue -> request handling
  Admission,  ///< rate-limiter decision on POST /v1/eval
  Lookup,     ///< registry acquire (state pointer copied under a mutex)
  Solve,      ///< one point: O(n^2 m) Hessenberg solve + C X + D
};
inline constexpr std::size_t kStageCount = 4;

/// Canonical label of a stage (`mfti_stage_seconds{stage=...}`).
const char* stage_name(Stage stage);

/// Log-spaced histogram buckets (seconds, upper bounds inclusive; +Inf
/// implicit) — the same grid as the front's request-latency histograms so
/// stage and edge latencies compare bucket-for-bucket.
inline constexpr std::array<double, 10> kStageBucketsSeconds = {
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0};

/// One timed stage of a trace; offsets are seconds since the trace began
/// (queue entry), so spans of one trace share a timeline.
struct Span {
  Stage stage = Stage::Queue;
  double start_seconds = 0.0;
  double seconds = 0.0;
};

/// A completed request trace as retained by the ring (and serialized by
/// `GET /v1/admin/trace`).
struct Trace {
  std::string id;        ///< X-Request-Id (client-provided or generated)
  std::string endpoint;  ///< "eval", "models", "admin", ...
  int http_status = 0;
  double start_unix_seconds = 0.0;  ///< wall clock at queue entry
  double total_seconds = 0.0;       ///< queue entry -> response built
  bool slow = false;                ///< total >= MFTI_TRACE_SLOW_MS
  std::vector<Span> spans;
  /// Spans discarded once the per-trace cap was hit (huge batches).
  std::size_t dropped_spans = 0;
};

/// The live, per-request span sink. Thread-safe: the engine's pool workers
/// record spans concurrently. Created by `TraceCollector::begin` only, so
/// a null context pointer *is* the tracing-disabled fast path.
class TraceContext {
 public:
  using Clock = std::chrono::steady_clock;

  TraceContext(std::string id, Clock::time_point begin,
               std::size_t max_spans);

  const std::string& id() const { return id_; }
  Clock::time_point begin_time() const { return begin_; }

  /// Seconds from the trace's begin to `tp` (clamped at 0).
  double offset_of(Clock::time_point tp) const;

  /// Record one completed stage by absolute monotonic endpoints.
  void record(Stage stage, Clock::time_point start, Clock::time_point end);

  /// Record one completed stage by timeline offset + duration — for spans
  /// whose boundaries were measured elsewhere (the front's queue wait).
  void record_offset(Stage stage, double start_seconds, double seconds);

  /// RAII span: records on destruction. A null context is a no-op, so
  /// call sites need no branching.
  class Scoped {
   public:
    Scoped(TraceContext* context, Stage stage)
        : context_(context),
          stage_(stage),
          start_(context ? Clock::now() : Clock::time_point{}) {}
    ~Scoped() {
      if (context_ != nullptr) context_->record(stage_, start_, Clock::now());
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    TraceContext* context_;
    Stage stage_;
    Clock::time_point start_;
  };
  Scoped span(Stage stage) { return Scoped(this, stage); }

  /// Copy of the spans recorded so far (start-order as recorded).
  std::vector<Span> snapshot() const;
  std::size_t dropped_spans() const;

 private:
  friend class TraceCollector;

  std::string id_;
  Clock::time_point begin_;
  std::size_t max_spans_;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Point-in-time copy of the per-stage histograms (rendered as
/// `mfti_stage_seconds` by `net::HttpMetrics`).
struct StageSnapshot {
  struct Series {
    std::array<std::uint64_t, kStageBucketsSeconds.size() + 1> buckets{};
    std::uint64_t observations = 0;
    double sum_seconds = 0.0;
  };
  std::array<Series, kStageCount> stages{};
};

struct TraceOptions {
  /// Master switch; off makes `begin()` return null (near-zero cost).
  bool enabled = true;
  /// Completed traces retained regardless of speed (newest win).
  std::size_t ring_capacity = 128;
  /// Slow traces retained preferentially in their own ring, so a flood of
  /// fast requests cannot evict the interesting outliers.
  std::size_t slow_ring_capacity = 32;
  /// Traces at least this slow (total, ms) are retained preferentially.
  double slow_threshold_ms = 100.0;
  /// Per-trace span cap; beyond it spans are counted, not stored.
  std::size_t max_spans = 512;

  /// Defaults overridden by the `MFTI_TRACE`, `MFTI_TRACE_RING`,
  /// `MFTI_TRACE_SLOW_MS` and `MFTI_TRACE_MAX_SPANS` environment knobs
  /// (malformed values are diagnosed on stderr and ignored).
  static TraceOptions from_env();
};

/// Owns the rings and the stage histograms; one per `net::ServingFront`.
class TraceCollector {
 public:
  explicit TraceCollector(TraceOptions opts = {});

  bool enabled() const { return opts_.enabled; }
  const TraceOptions& options() const { return opts_; }
  double slow_threshold_seconds() const {
    return opts_.slow_threshold_ms / 1000.0;
  }

  /// Start a trace. `request_id` empty generates a process-unique id;
  /// over-long ids are truncated (they become response headers and ring
  /// keys). `begin` anchors the timeline — pass the queue-entry time so
  /// the queue span starts at offset 0. Null when disabled.
  std::shared_ptr<TraceContext> begin(
      std::string_view request_id,
      TraceContext::Clock::time_point begin =
          TraceContext::Clock::now());

  /// Complete a trace: feed its spans into the stage histograms and
  /// retain it in the ring(s). `total_seconds` spans queue entry to
  /// response built.
  void finish(const std::shared_ptr<TraceContext>& context,
              std::string endpoint, int http_status, double total_seconds);

  /// Histogram-only observation for requests without a context (also the
  /// path tests use to exercise bucketing directly).
  void observe_stage(Stage stage, double seconds);

  std::vector<Trace> recent() const;  ///< newest first
  std::vector<Trace> slow() const;    ///< newest first, slow-only ring
  StageSnapshot stage_snapshot() const;
  std::uint64_t traces_finished() const {
    return finished_.load(std::memory_order_relaxed);
  }

 private:
  TraceOptions opts_;
  std::atomic<std::uint64_t> id_counter_{0};
  std::atomic<std::uint64_t> finished_{0};

  std::array<std::array<std::atomic<std::uint64_t>,
                        kStageBucketsSeconds.size() + 1>,
             kStageCount>
      buckets_{};
  std::array<std::atomic<std::uint64_t>, kStageCount> observations_{};
  std::array<std::atomic<double>, kStageCount> sums_{};

  mutable std::mutex ring_mutex_;
  std::deque<Trace> recent_;
  std::deque<Trace> slow_;
};

}  // namespace mfti::obs
