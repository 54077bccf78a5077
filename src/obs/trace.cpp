#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/knobs.hpp"

namespace mfti::obs {

namespace {

/// Response headers and ring keys should stay small even for a hostile
/// X-Request-Id; anything longer is truncated, not rejected.
constexpr std::size_t kMaxRequestIdLength = 128;

void atomic_add(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + value,
                                        std::memory_order_relaxed)) {
  }
}

double wall_clock_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::Queue:
      return "queue";
    case Stage::Admission:
      return "admission";
    case Stage::Lookup:
      return "lookup";
    case Stage::Solve:
      return "solve";
  }
  return "unknown";
}

TraceOptions TraceOptions::from_env() {
  TraceOptions opts;
  util::env_knob("MFTI_TRACE", &opts.enabled);
  util::env_knob("MFTI_TRACE_RING", &opts.ring_capacity);
  util::env_knob("MFTI_TRACE_SLOW_MS", &opts.slow_threshold_ms);
  util::env_knob("MFTI_TRACE_MAX_SPANS", &opts.max_spans);
  return opts;
}

TraceContext::TraceContext(std::string id, Clock::time_point begin,
                           std::size_t max_spans)
    : id_(std::move(id)), begin_(begin), max_spans_(max_spans) {}

double TraceContext::offset_of(Clock::time_point tp) const {
  return std::max(0.0,
                  std::chrono::duration<double>(tp - begin_).count());
}

void TraceContext::record(Stage stage, Clock::time_point start,
                          Clock::time_point end) {
  record_offset(stage, offset_of(start),
                std::max(0.0, std::chrono::duration<double>(end - start)
                                  .count()));
}

void TraceContext::record_offset(Stage stage, double start_seconds,
                                 double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{stage, std::max(0.0, start_seconds),
                        std::max(0.0, seconds)});
}

std::vector<Span> TraceContext::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t TraceContext::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

TraceCollector::TraceCollector(TraceOptions opts) : opts_(opts) {}

std::shared_ptr<TraceContext> TraceCollector::begin(
    std::string_view request_id, TraceContext::Clock::time_point begin) {
  if (!opts_.enabled) return nullptr;
  std::string id;
  if (request_id.empty()) {
    char generated[24];
    std::snprintf(generated, sizeof generated, "req-%llx",
                  static_cast<unsigned long long>(
                      id_counter_.fetch_add(1, std::memory_order_relaxed) +
                      1));
    id = generated;
  } else {
    id = std::string(request_id.substr(0, kMaxRequestIdLength));
  }
  return std::make_shared<TraceContext>(std::move(id), begin,
                                        opts_.max_spans);
}

void TraceCollector::observe_stage(Stage stage, double seconds) {
  const std::size_t s = static_cast<std::size_t>(stage);
  std::size_t bucket = kStageBucketsSeconds.size();
  for (std::size_t b = 0; b < kStageBucketsSeconds.size(); ++b) {
    if (seconds <= kStageBucketsSeconds[b]) {
      bucket = b;
      break;
    }
  }
  buckets_[s][bucket].fetch_add(1, std::memory_order_relaxed);
  observations_[s].fetch_add(1, std::memory_order_relaxed);
  atomic_add(&sums_[s], seconds);
}

void TraceCollector::finish(const std::shared_ptr<TraceContext>& context,
                            std::string endpoint, int http_status,
                            double total_seconds) {
  if (context == nullptr) return;
  Trace trace;
  trace.id = context->id();
  trace.endpoint = std::move(endpoint);
  trace.http_status = http_status;
  trace.total_seconds = std::max(0.0, total_seconds);
  trace.start_unix_seconds = wall_clock_seconds() - trace.total_seconds;
  trace.slow = trace.total_seconds >= slow_threshold_seconds();
  {
    std::lock_guard<std::mutex> lock(context->mutex_);
    trace.spans = context->spans_;
    trace.dropped_spans = context->dropped_;
  }
  for (const Span& span : trace.spans) {
    observe_stage(span.stage, span.seconds);
  }
  finished_.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(ring_mutex_);
  if (trace.slow && opts_.slow_ring_capacity > 0) {
    slow_.push_back(trace);
    while (slow_.size() > opts_.slow_ring_capacity) slow_.pop_front();
  }
  if (opts_.ring_capacity > 0) {
    recent_.push_back(std::move(trace));
    while (recent_.size() > opts_.ring_capacity) recent_.pop_front();
  }
}

std::vector<Trace> TraceCollector::recent() const {
  std::lock_guard<std::mutex> lock(ring_mutex_);
  return std::vector<Trace>(recent_.rbegin(), recent_.rend());
}

std::vector<Trace> TraceCollector::slow() const {
  std::lock_guard<std::mutex> lock(ring_mutex_);
  return std::vector<Trace>(slow_.rbegin(), slow_.rend());
}

StageSnapshot TraceCollector::stage_snapshot() const {
  StageSnapshot snapshot;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    StageSnapshot::Series& series = snapshot.stages[s];
    for (std::size_t b = 0; b < series.buckets.size(); ++b) {
      series.buckets[b] = buckets_[s][b].load(std::memory_order_relaxed);
    }
    series.observations = observations_[s].load(std::memory_order_relaxed);
    series.sum_seconds = sums_[s].load(std::memory_order_relaxed);
  }
  return snapshot;
}

}  // namespace mfti::obs
