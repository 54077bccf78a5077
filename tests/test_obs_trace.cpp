// Tests for the request-tracing subsystem (src/obs): span recording and
// ordering (including nested RAII scopes), the per-trace span cap, ring
// eviction with preferential retention of slow traces, request-id
// generation/truncation, the lock-free stage histograms, the environment
// knobs, and the engine integration (lookup and per-point solve spans on
// real evaluations). The concurrency test
// at the bottom is written for TSan: many threads record into one shared
// context and finish disjoint contexts while a reader scrapes the rings
// and histograms.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "scoped_env.hpp"
#include "serving/serving.hpp"
#include "statespace/random_system.hpp"

namespace api = mfti::api;
namespace la = mfti::la;
namespace obs = mfti::obs;
namespace serving = mfti::serving;
namespace ss = mfti::ss;

namespace {

ss::DescriptorSystem make_system(std::size_t order, std::size_t ports,
                                 std::uint64_t seed) {
  la::Rng rng(seed);
  ss::RandomSystemOptions opts;
  opts.order = order;
  opts.num_outputs = ports;
  opts.num_inputs = ports;
  opts.rank_d = ports;
  opts.f_min_hz = 10.0;
  opts.f_max_hz = 1e5;
  return ss::random_stable_mimo(opts, rng);
}

serving::ModelSnapshot make_snapshot(std::size_t order, std::size_t ports,
                                     std::uint64_t seed) {
  return std::make_shared<const api::ModelHandle>(
      make_system(order, ports, seed));
}

/// `prefix` + decimal `i` without std::string operator+ chains (GCC 12's
/// -Werror=restrict misfires on those).
std::string tagged(const char* prefix, int i) {
  std::string out(prefix);
  out += std::to_string(i);
  return out;
}

/// Spans of `stage` in a snapshot/trace.
std::vector<obs::Span> spans_of(const std::vector<obs::Span>& spans,
                                obs::Stage stage) {
  std::vector<obs::Span> out;
  for (const obs::Span& span : spans) {
    if (span.stage == stage) out.push_back(span);
  }
  return out;
}

}  // namespace

TEST(TraceContext, StageNamesMatchPrometheusLabels) {
  EXPECT_STREQ(obs::stage_name(obs::Stage::Queue), "queue");
  EXPECT_STREQ(obs::stage_name(obs::Stage::Admission), "admission");
  EXPECT_STREQ(obs::stage_name(obs::Stage::Lookup), "lookup");
  EXPECT_STREQ(obs::stage_name(obs::Stage::Solve), "solve");
}

TEST(TraceContext, RecordsSpansInOrderOnOneTimeline) {
  const auto begin = obs::TraceContext::Clock::now();
  obs::TraceContext context("r1", begin, 16);
  context.record_offset(obs::Stage::Queue, 0.0, 0.5);
  context.record_offset(obs::Stage::Lookup, 0.5, 0.25);
  context.record(obs::Stage::Solve, begin + std::chrono::milliseconds(750),
                 begin + std::chrono::milliseconds(1000));

  const std::vector<obs::Span> spans = context.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].stage, obs::Stage::Queue);
  EXPECT_DOUBLE_EQ(spans[0].start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(spans[0].seconds, 0.5);
  EXPECT_EQ(spans[1].stage, obs::Stage::Lookup);
  EXPECT_DOUBLE_EQ(spans[1].start_seconds, 0.5);
  EXPECT_EQ(spans[2].stage, obs::Stage::Solve);
  EXPECT_NEAR(spans[2].start_seconds, 0.75, 1e-9);
  EXPECT_NEAR(spans[2].seconds, 0.25, 1e-9);
  EXPECT_EQ(context.dropped_spans(), 0u);

  // Offsets clamp at zero for timestamps before the trace began.
  EXPECT_DOUBLE_EQ(context.offset_of(begin - std::chrono::seconds(1)), 0.0);
  EXPECT_NEAR(context.offset_of(begin + std::chrono::milliseconds(100)),
              0.1, 1e-9);
}

TEST(TraceContext, ScopedSpansNestAndNullContextIsANoOp) {
  obs::TraceContext context("r2", obs::TraceContext::Clock::now(), 16);
  {
    obs::TraceContext::Scoped outer(&context, obs::Stage::Lookup);
    {
      obs::TraceContext::Scoped inner(&context, obs::Stage::Solve);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const std::vector<obs::Span> spans = context.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // The inner scope destructs (and records) first; the outer span must
  // start no later and end no earlier than the inner one.
  EXPECT_EQ(spans[0].stage, obs::Stage::Solve);
  EXPECT_EQ(spans[1].stage, obs::Stage::Lookup);
  EXPECT_LE(spans[1].start_seconds, spans[0].start_seconds);
  EXPECT_GE(spans[1].start_seconds + spans[1].seconds,
            spans[0].start_seconds + spans[0].seconds);
  EXPECT_GE(spans[0].seconds, 0.002);

  // A null context records nothing and must not crash.
  { obs::TraceContext::Scoped noop(nullptr, obs::Stage::Queue); }
  EXPECT_EQ(context.snapshot().size(), 2u);
}

TEST(TraceContext, SpanCapCountsDroppedSpans) {
  obs::TraceContext context("r3", obs::TraceContext::Clock::now(), 4);
  for (int i = 0; i < 10; ++i) {
    context.record_offset(obs::Stage::Solve, static_cast<double>(i), 0.001);
  }
  EXPECT_EQ(context.snapshot().size(), 4u);
  EXPECT_EQ(context.dropped_spans(), 6u);
}

TEST(TraceCollector, DisabledCollectorHandsOutNullContexts) {
  obs::TraceOptions opts;
  opts.enabled = false;
  obs::TraceCollector collector(opts);
  EXPECT_FALSE(collector.enabled());
  EXPECT_EQ(collector.begin("client-id"), nullptr);
  EXPECT_EQ(collector.traces_finished(), 0u);
  EXPECT_TRUE(collector.recent().empty());
}

TEST(TraceCollector, GeneratesUniqueIdsAndTruncatesLongOnes) {
  obs::TraceCollector collector;
  std::set<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    const auto context = collector.begin("");
    ASSERT_NE(context, nullptr);
    EXPECT_EQ(context->id().rfind("req-", 0), 0u);
    ids.insert(context->id());
  }
  EXPECT_EQ(ids.size(), 8u);

  const std::string huge(4096, 'x');
  const auto context = collector.begin(huge);
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->id().size(), 128u);
  EXPECT_EQ(huge.rfind(context->id(), 0), 0u);
}

TEST(TraceCollector, RingEvictsOldestUnderOverflow) {
  obs::TraceOptions opts;
  opts.ring_capacity = 4;
  obs::TraceCollector collector(opts);
  for (int i = 0; i < 10; ++i) {
    const auto context = collector.begin(tagged("t", i));
    collector.finish(context, "eval", 200, 0.001);
  }
  EXPECT_EQ(collector.traces_finished(), 10u);
  const std::vector<obs::Trace> recent = collector.recent();
  ASSERT_EQ(recent.size(), 4u);
  // Newest first; the six oldest were evicted.
  EXPECT_EQ(recent[0].id, "t9");
  EXPECT_EQ(recent[1].id, "t8");
  EXPECT_EQ(recent[2].id, "t7");
  EXPECT_EQ(recent[3].id, "t6");
}

TEST(TraceCollector, SlowTracesSurviveAFloodOfFastOnes) {
  obs::TraceOptions opts;
  opts.ring_capacity = 4;
  opts.slow_ring_capacity = 2;
  opts.slow_threshold_ms = 50.0;
  obs::TraceCollector collector(opts);

  const auto slow = collector.begin("slowpoke");
  slow->record_offset(obs::Stage::Solve, 0.0, 0.075);
  collector.finish(slow, "eval", 200, 0.075);
  for (int i = 0; i < 32; ++i) {
    collector.finish(collector.begin(tagged("fast", i)), "eval", 200,
                     0.001);
  }

  // Gone from the recent ring, retained in the slow ring.
  for (const obs::Trace& trace : collector.recent()) {
    EXPECT_NE(trace.id, "slowpoke");
    EXPECT_FALSE(trace.slow);
  }
  const std::vector<obs::Trace> slow_ring = collector.slow();
  ASSERT_EQ(slow_ring.size(), 1u);
  EXPECT_EQ(slow_ring[0].id, "slowpoke");
  EXPECT_TRUE(slow_ring[0].slow);
  ASSERT_EQ(slow_ring[0].spans.size(), 1u);
  EXPECT_EQ(slow_ring[0].spans[0].stage, obs::Stage::Solve);

  // The slow ring itself is bounded: newest slow traces win.
  for (int i = 0; i < 5; ++i) {
    const auto context = collector.begin(tagged("slow", i));
    collector.finish(context, "eval", 200, 0.2);
  }
  const std::vector<obs::Trace> bounded = collector.slow();
  ASSERT_EQ(bounded.size(), 2u);
  EXPECT_EQ(bounded[0].id, "slow4");
  EXPECT_EQ(bounded[1].id, "slow3");
}

TEST(TraceCollector, StageHistogramsBucketObservations) {
  obs::TraceCollector collector;
  collector.observe_stage(obs::Stage::Solve, 5e-5);   // bucket 0 (<= 1e-4)
  collector.observe_stage(obs::Stage::Solve, 2e-3);   // bucket 3 (<= 3e-3)
  collector.observe_stage(obs::Stage::Solve, 100.0);  // +Inf bucket
  collector.observe_stage(obs::Stage::Queue, 2e-4);   // bucket 1 (<= 3e-4)

  const obs::StageSnapshot snapshot = collector.stage_snapshot();
  const auto& solve =
      snapshot.stages[static_cast<std::size_t>(obs::Stage::Solve)];
  EXPECT_EQ(solve.observations, 3u);
  EXPECT_NEAR(solve.sum_seconds, 100.002 + 5e-5, 1e-12);
  EXPECT_EQ(solve.buckets[0], 1u);
  EXPECT_EQ(solve.buckets[3], 1u);
  EXPECT_EQ(solve.buckets[obs::kStageBucketsSeconds.size()], 1u);
  const auto& queue =
      snapshot.stages[static_cast<std::size_t>(obs::Stage::Queue)];
  EXPECT_EQ(queue.observations, 1u);
  EXPECT_EQ(queue.buckets[1], 1u);

  // finish() feeds the histograms from the trace's spans.
  const auto context = collector.begin("histo");
  context->record_offset(obs::Stage::Lookup, 0.0, 2e-2);
  collector.finish(context, "eval", 200, 2e-2);
  const obs::StageSnapshot after = collector.stage_snapshot();
  const auto& lookup =
      after.stages[static_cast<std::size_t>(obs::Stage::Lookup)];
  EXPECT_EQ(lookup.observations, 1u);
  EXPECT_EQ(lookup.buckets[5], 1u);  // 2e-2 lands in the 3e-2 bucket
}

TEST(TraceOptions, FromEnvReadsKnobsAndIgnoresMalformedValues) {
  {
    ScopedEnv enabled("MFTI_TRACE", "0");
    ScopedEnv ring("MFTI_TRACE_RING", "7");
    ScopedEnv slow("MFTI_TRACE_SLOW_MS", "12.5");
    ScopedEnv spans("MFTI_TRACE_MAX_SPANS", "33");
    const obs::TraceOptions opts = obs::TraceOptions::from_env();
    EXPECT_FALSE(opts.enabled);
    EXPECT_EQ(opts.ring_capacity, 7u);
    EXPECT_DOUBLE_EQ(opts.slow_threshold_ms, 12.5);
    EXPECT_EQ(opts.max_spans, 33u);
  }
  {
    ScopedEnv ring("MFTI_TRACE_RING", "banana");
    ScopedEnv slow("MFTI_TRACE_SLOW_MS", "-3");
    const obs::TraceOptions defaults;
    const obs::TraceOptions opts = obs::TraceOptions::from_env();
    EXPECT_EQ(opts.ring_capacity, defaults.ring_capacity);
    EXPECT_DOUBLE_EQ(opts.slow_threshold_ms, defaults.slow_threshold_ms);
  }
}

// --- engine integration ------------------------------------------------------

// One lookup per request and one solve per distinct point, on the first
// request of a fresh handle and on a repeat alike (nothing is cached
// between requests).
TEST(ServingEngineTracing, EvalRecordsLookupAndOneSolvePerPoint) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(16, 2, 71));
  serving::ServingEngine engine(registry, {.workers = 2});
  obs::TraceCollector collector;

  const std::vector<la::Complex> points = {
      la::Complex(0.0, 100.0), la::Complex(0.0, 200.0),
      la::Complex(0.0, 100.0)};
  for (const char* id : {"first", "repeat"}) {
    const auto trace = collector.begin(id);
    serving::EvalRequest request("m", points);
    request.trace = trace;
    const auto response = engine.evaluate(request);
    ASSERT_TRUE(response) << response.status().to_string();

    const std::vector<obs::Span> spans = trace->snapshot();
    EXPECT_EQ(spans.size(), 3u) << id;
    EXPECT_EQ(spans_of(spans, obs::Stage::Lookup).size(), 1u) << id;
    const auto solves = spans_of(spans, obs::Stage::Solve);
    EXPECT_EQ(solves.size(), response->unique_points) << id;
    for (const obs::Span& solve : solves) EXPECT_GT(solve.seconds, 0.0);
  }
}

TEST(ServingEngineTracing, UntracedRequestsStillEvaluate) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(12, 2, 72));
  serving::ServingEngine engine(registry, {.workers = 2});
  const auto response =
      engine.evaluate({"m", {la::Complex(0.0, 100.0)}});
  ASSERT_TRUE(response) << response.status().to_string();
  EXPECT_EQ(response->values.size(), 1u);
}

// --- concurrency (TSan coverage) --------------------------------------------

// Pool workers of one request record into one shared context while other
// requests finish and readers scrape the rings + histograms. Run under
// TSan this exercises every lock/atomic in the subsystem.
TEST(TraceCollector, ConcurrentRecordingFinishingAndScrapingIsSafe) {
  obs::TraceOptions opts;
  opts.ring_capacity = 16;
  opts.slow_threshold_ms = 0.5;
  obs::TraceCollector collector(opts);

  constexpr int kRecorders = 4;
  constexpr int kFinishers = 4;
  constexpr int kSpansPerRecorder = 200;
  constexpr int kTracesPerFinisher = 100;
  const auto shared = collector.begin("shared");

  std::vector<std::thread> threads;
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSpansPerRecorder; ++i) {
        shared->record_offset(
            t % 2 == 0 ? obs::Stage::Solve : obs::Stage::Lookup,
            static_cast<double>(i) * 1e-4, 1e-4);
      }
    });
  }
  for (int t = 0; t < kFinishers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTracesPerFinisher; ++i) {
        std::string id = tagged("f", t);
        id += '-';
        id += std::to_string(i);
        const auto context = collector.begin(id);
        context->record_offset(obs::Stage::Queue, 0.0, 1e-5);
        collector.finish(context, "eval", 200, i % 10 == 0 ? 0.01 : 1e-4);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)collector.recent();
      (void)collector.slow();
      (void)collector.stage_snapshot();
      (void)shared->snapshot();
    }
  });
  for (auto& thread : threads) thread.join();
  stop.store(true);
  reader.join();
  collector.finish(shared, "eval", 200, 0.05);

  EXPECT_EQ(collector.traces_finished(),
            1u + kFinishers * kTracesPerFinisher);
  const obs::StageSnapshot snapshot = collector.stage_snapshot();
  std::uint64_t queue_count =
      snapshot.stages[static_cast<std::size_t>(obs::Stage::Queue)]
          .observations;
  EXPECT_EQ(queue_count,
            static_cast<std::uint64_t>(kFinishers * kTracesPerFinisher));
  // Default max_spans (512) capped the shared context below the 800
  // recorded spans; stored + dropped must account for every record call.
  EXPECT_EQ(shared->snapshot().size() + shared->dropped_spans(),
            static_cast<std::size_t>(kRecorders * kSpansPerRecorder));
}
