// Tests for the multi-model serving subsystem (src/serving): registry
// publish/rollback/version semantics, engine routing (bitwise parity with
// direct ModelHandle evaluation, in-batch dedup, per-request error
// isolation including a pole), the unified EvalRequest vocabulary
// (points/freqs_hz parity), atomic republish under a concurrent query
// storm (no torn/mixed-version responses), and the AsyncFitter background
// pipeline (auto-publish, cancellation leaves the registry unchanged).

#include "serving/serving.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "core/recursive_mfti.hpp"
#include "hard_pencils.hpp"
#include "sampling/grid.hpp"
#include "sampling/sampler.hpp"
#include "statespace/random_system.hpp"
#include "statespace/response.hpp"

namespace api = mfti::api;
namespace la = mfti::la;
namespace serving = mfti::serving;
namespace sp = mfti::sampling;
namespace ss = mfti::ss;
using la::CMat;
using la::Complex;

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

std::vector<Complex> grid_points(std::size_t count) {
  std::vector<Complex> points;
  for (const double f : sp::log_grid(10.0, 1e5, count)) {
    points.emplace_back(0.0, 2.0 * std::numbers::pi * f);
  }
  return points;
}

template <typename T>
double max_diff(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      m = std::max(m, la::detail::abs_value(a(i, j) - b(i, j)));
  return m;
}

}  // namespace

// --- ModelRegistry ----------------------------------------------------------

TEST(ModelRegistry, PublishLookupInfoList) {
  serving::ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.lookup("a"), nullptr);
  EXPECT_FALSE(registry.info("a"));
  EXPECT_EQ(registry.info("a").status().code(), api::StatusCode::NotFound);

  EXPECT_EQ(registry.publish("a", make_snapshot(8, 2, 1)), 1u);
  EXPECT_EQ(registry.publish("b", make_snapshot(12, 3, 2),
                             api::Algorithm::Mfti, 0.25),
            1u);
  EXPECT_EQ(registry.size(), 2u);

  const auto info = registry.info("b");
  ASSERT_TRUE(info);
  EXPECT_EQ(info->name, "b");
  EXPECT_EQ(info->version, 1u);
  EXPECT_EQ(info->order, 12u);
  EXPECT_EQ(info->num_inputs, 3u);
  ASSERT_TRUE(info->algorithm.has_value());
  EXPECT_EQ(*info->algorithm, api::Algorithm::Mfti);
  EXPECT_EQ(info->fit_seconds, 0.25);
  EXPECT_EQ(info->history_depth, 0u);

  const auto listed = registry.list();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].name, "a");
  EXPECT_EQ(listed[1].name, "b");
  EXPECT_FALSE(listed[0].algorithm.has_value());

  EXPECT_TRUE(registry.remove("a"));
  EXPECT_FALSE(registry.remove("a"));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_THROW(registry.publish("x", nullptr), std::invalid_argument);
}

TEST(ModelRegistry, RepublishKeepsOldSnapshotAliveAndRollbackRestoresIt) {
  serving::ModelRegistry registry;
  const auto v1 = make_snapshot(8, 2, 10);
  registry.publish("m", v1);
  const serving::ModelSnapshot held = registry.lookup("m");
  ASSERT_EQ(held.get(), v1.get());

  EXPECT_EQ(registry.publish("m", make_snapshot(10, 2, 11)), 2u);
  // The held snapshot still answers queries against version 1.
  const Complex s(0.0, 2.0 * std::numbers::pi * 1e3);
  EXPECT_EQ(held->order(), 8u);
  EXPECT_EQ(max_diff(held->evaluate(s), v1->evaluate(s)), 0.0);
  EXPECT_EQ(registry.lookup("m")->order(), 10u);
  EXPECT_EQ(registry.info("m")->history_depth, 1u);

  const auto rolled = registry.rollback("m");
  ASSERT_TRUE(rolled);
  EXPECT_EQ(*rolled, 1u);
  EXPECT_EQ(registry.lookup("m").get(), v1.get());
  // History exhausted: a second rollback is an error, not a crash.
  EXPECT_EQ(registry.rollback("m").status().code(),
            api::StatusCode::InvalidArgument);
  EXPECT_EQ(registry.rollback("ghost").status().code(),
            api::StatusCode::NotFound);
  // Version numbers keep climbing after a rollback.
  EXPECT_EQ(registry.publish("m", make_snapshot(6, 2, 12)), 3u);
}

TEST(ModelRegistry, MaxVersionsBoundsRollbackHistory) {
  serving::ModelRegistry registry({.max_versions = 2, .verification = nullptr});
  registry.publish("m", make_snapshot(6, 2, 20));
  registry.publish("m", make_snapshot(7, 2, 21));
  registry.publish("m", make_snapshot(8, 2, 22));  // v1 dropped
  EXPECT_EQ(registry.info("m")->version, 3u);
  ASSERT_TRUE(registry.rollback("m"));
  EXPECT_EQ(registry.info("m")->version, 2u);
  EXPECT_EQ(registry.rollback("m").status().code(),
            api::StatusCode::InvalidArgument);
}

// --- ServingEngine: routing parity ------------------------------------------

// Engine responses must be bitwise equal to direct ModelHandle evaluation
// for every registered model: the engine routes to the same snapshot and
// performs the same arithmetic, only the dispatch differs.
TEST(ServingEngine, ResponsesBitwiseEqualDirectHandleEvaluation) {
  serving::ModelRegistry registry;
  registry.publish("small", make_snapshot(8, 2, 30));
  registry.publish("medium", make_snapshot(14, 3, 31));
  registry.publish("large", make_snapshot(20, 4, 32));
  serving::ServingEngine engine(registry, {.workers = 3});

  const auto points = grid_points(11);
  std::vector<serving::EvalRequest> batch;
  for (const auto& name : {"small", "medium", "large"}) {
    batch.push_back({name, points});
  }
  const auto responses = engine.evaluate(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t r = 0; r < batch.size(); ++r) {
    ASSERT_TRUE(responses[r]) << responses[r].status().to_string();
    // Direct evaluation against a *separate* handle of the same model:
    // identical serial arithmetic, so equality must be exact.
    const auto direct = registry.lookup(batch[r].model);
    ASSERT_NE(direct, nullptr);
    ASSERT_EQ(responses[r]->values.size(), points.size());
    EXPECT_EQ(responses[r]->version, 1u);
    EXPECT_EQ(responses[r]->unique_points, points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(max_diff(responses[r]->values[i], direct->evaluate(points[i])),
                0.0)
          << batch[r].model << " point " << i;
    }
  }
}

TEST(ServingEngine, DeduplicatesIdenticalPointsWithinABatch) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(10, 2, 40));
  serving::ServingEngine engine(registry, {.workers = 2});

  const auto base = grid_points(5);
  std::vector<Complex> points;
  for (int round = 0; round < 4; ++round) {
    points.insert(points.end(), base.begin(), base.end());
  }
  const auto response = engine.evaluate({"m", points});
  ASSERT_TRUE(response) << response.status().to_string();
  EXPECT_EQ(response->values.size(), points.size());
  EXPECT_EQ(response->unique_points, base.size());
  // Duplicates are exact copies of their representative.
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(max_diff(response->values[i], response->values[i % base.size()]),
              0.0);
  }
}

TEST(ServingEngine, RequestsFailIndependently) {
  serving::ModelRegistry registry;
  registry.publish("ok", make_snapshot(8, 2, 50));
  registry.publish("pole", std::make_shared<const api::ModelHandle>(
                               hard_pencils::one_pole_at_minus_two()));
  serving::ServingEngine engine(registry);

  // A point exactly at a pole fails its own request as a numerical error.
  const auto responses = engine.evaluate(std::vector<serving::EvalRequest>{
      {"ok", grid_points(3)},
      {"ghost", grid_points(3)},
      {"pole", {Complex(0.0, 1.0), Complex(-2.0, 0.0)}},
      {"pole", {Complex(0.0, 1.0)}}});
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0]);
  ASSERT_FALSE(responses[1]);
  EXPECT_EQ(responses[1].status().code(), api::StatusCode::NotFound);
  ASSERT_FALSE(responses[2]);
  EXPECT_EQ(responses[2].status().code(), api::StatusCode::NumericalError);
  EXPECT_TRUE(responses[3]);

  const auto empty = engine.evaluate(serving::EvalRequest{"ok", {}});
  ASSERT_TRUE(empty);
  EXPECT_TRUE(empty->values.empty());
  EXPECT_EQ(empty->unique_points, 0u);
}

// A frequency-grid request is bit-identical to the handle's own sweep and
// agrees with the free `ss::frequency_response`.
TEST(ServingEngine, SweepMatchesHandleSweep) {
  serving::ModelRegistry registry;
  const auto sys = make_system(12, 3, 60);
  registry.publish("m",
                   std::make_shared<const api::ModelHandle>(sys));
  serving::ServingEngine engine(registry);
  const auto freqs = sp::log_grid(10.0, 1e5, 9);
  const auto response =
      engine.evaluate(serving::EvalRequest::at_hz("m", freqs));
  ASSERT_TRUE(response) << response.status().to_string();
  const auto swept = registry.lookup("m")->sweep(freqs);
  const auto reference = ss::frequency_response(sys, freqs);
  ASSERT_EQ(response->values.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(max_diff(response->values[i], swept[i]), 0.0);
    EXPECT_LE(max_diff(response->values[i], reference[i]), 1e-12);
  }
}

// --- ServingEngine: unified EvalRequest vocabulary --------------------------

// `freqs_hz` requests must be bit-identical to `points` requests built
// through `api::points_from_freqs_hz` *and* to direct handle evaluation at
// `s = j 2 pi f`: one Hz convention across every entry point, so the HTTP
// front can pass either field through without converting.
TEST(ServingEngine, FreqsHzVocabularyMatchesPointsBitwise) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(12, 3, 150));
  serving::ServingEngine engine(registry);
  const auto freqs = sp::log_grid(10.0, 1e5, 9);

  const auto by_hz = engine.evaluate(serving::EvalRequest::at_hz("m", freqs));
  ASSERT_TRUE(by_hz) << by_hz.status().to_string();
  const auto by_points = engine.evaluate(
      serving::EvalRequest::at("m", api::points_from_freqs_hz(freqs)));
  ASSERT_TRUE(by_points) << by_points.status().to_string();
  ASSERT_EQ(by_hz->values.size(), freqs.size());
  ASSERT_EQ(by_points->values.size(), freqs.size());
  EXPECT_EQ(by_hz->unique_points, freqs.size());
  const auto direct = registry.lookup("m");
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_EQ(max_diff(by_hz->values[i], by_points->values[i]), 0.0);
    const Complex s(0.0, 2.0 * std::numbers::pi * freqs[i]);
    EXPECT_EQ(max_diff(by_hz->values[i], direct->evaluate(s)), 0.0);
  }
}

TEST(ServingEngine, PointsAndFreqsTogetherIsInvalidArgument) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(8, 2, 151));
  serving::ServingEngine engine(registry);

  serving::EvalRequest request;
  request.model = "m";
  request.points = grid_points(2);
  request.freqs_hz = {100.0};
  const auto response = engine.evaluate(request);
  ASSERT_FALSE(response);
  EXPECT_EQ(response.status().code(), api::StatusCode::InvalidArgument);

  // The error is per-request: a well-formed neighbour in the same batch is
  // still served.
  const auto batch = engine.evaluate(std::vector<serving::EvalRequest>{
      request, serving::EvalRequest::at_hz("m", {100.0})});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0]);
  EXPECT_TRUE(batch[1]);
}

// --- ServingEngine: atomic republish under a query storm --------------------

// While one thread republishes alternating versions, query threads hammer
// the engine. Every response must match exactly one version's reference at
// every point — a torn response (some points from v_a, some from v_b, or a
// version field not matching the values) is a failure.
TEST(ServingEngine, RepublishUnderQueryStormNeverTearsResponses) {
  const auto sys_a = make_system(10, 2, 70);
  const auto sys_b = make_system(12, 2, 71);
  const auto points = grid_points(6);

  // References from separate handles: the engine must serve exactly these
  // bits, so one value from the other version fails the != 0.0 check.
  std::vector<CMat> ref_a;
  std::vector<CMat> ref_b;
  for (const Complex& s : points) {
    ref_a.push_back(api::ModelHandle(sys_a).evaluate(s));
    ref_b.push_back(api::ModelHandle(sys_b).evaluate(s));
  }

  serving::ModelRegistry registry;
  registry.publish("m", std::make_shared<const api::ModelHandle>(sys_a));
  serving::ServingEngine engine(registry, {.workers = 2});

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<int> served{0};
  constexpr int kQueriers = 3;
  constexpr int kRoundsPerQuerier = 50;
  std::vector<std::thread> queriers;
  for (int t = 0; t < kQueriers; ++t) {
    queriers.emplace_back([&] {
      for (int round = 0; round < kRoundsPerQuerier; ++round) {
        const auto response = engine.evaluate({"m", points});
        if (!response) {
          torn.fetch_add(1);  // the model must never disappear
          continue;
        }
        // Odd versions are sys_a, even versions sys_b (publish order
        // below); every point must match that version's reference.
        const auto& ref = (response->version % 2 == 1) ? ref_a : ref_b;
        for (std::size_t i = 0; i < points.size(); ++i) {
          if (max_diff(response->values[i], ref[i]) != 0.0) {
            torn.fetch_add(1);
            break;
          }
        }
        served.fetch_add(1);
      }
    });
  }

  // Republish as fast as the queriers keep querying (version 1 is sys_a,
  // so even publishes below are sys_b, odd ones sys_a).
  std::uint64_t publishes = 0;
  std::thread publisher([&] {
    // do-while: at least one publish even when a loaded scheduler never
    // runs this thread before the queriers finish.
    do {
      const auto& sys = (publishes % 2 == 0) ? sys_b : sys_a;
      registry.publish("m", std::make_shared<const api::ModelHandle>(sys));
      ++publishes;
    } while (!done.load(std::memory_order_relaxed));
  });
  for (auto& t : queriers) t.join();
  done.store(true);
  publisher.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(served.load(), kQueriers * kRoundsPerQuerier);
  EXPECT_GT(publishes, 0u);
  EXPECT_EQ(registry.info("m")->version, 1u + publishes);
}

TEST(ModelRegistry, GenerationBumpsOnEveryMutation) {
  serving::ModelRegistry registry;
  const auto g0 = registry.generation();
  registry.publish("m", make_snapshot(6, 2, 97));
  const auto g1 = registry.generation();
  EXPECT_GT(g1, g0);
  registry.publish("m", make_snapshot(6, 2, 98));
  const auto g2 = registry.generation();
  EXPECT_GT(g2, g1);
  ASSERT_TRUE(registry.rollback("m"));
  const auto g3 = registry.generation();
  EXPECT_GT(g3, g2);
  EXPECT_TRUE(registry.remove("m"));
  EXPECT_GT(registry.generation(), g3);
  // Lookups and failed mutations do not bump it.
  const auto g4 = registry.generation();
  registry.lookup("ghost");
  EXPECT_FALSE(registry.remove("ghost"));
  EXPECT_FALSE(registry.rollback("ghost"));
  EXPECT_EQ(registry.generation(), g4);
}

// --- AsyncFitter ------------------------------------------------------------

TEST(AsyncFitter, FitsInBackgroundAndAutoPublishes) {
  serving::ModelRegistry registry;
  serving::AsyncFitter fits(registry);

  const auto data = sp::sample_system(make_system(10, 2, 100),
                                      sp::log_grid(10.0, 1e5, 10));
  api::FitRequest request;
  request.samples = data;
  auto done = fits.submit(std::move(request), "fitted");
  const auto report = done.get();
  ASSERT_TRUE(report) << report.status().to_string();

  // Published before the future resolved.
  const auto info = registry.info("fitted");
  ASSERT_TRUE(info);
  EXPECT_EQ(info->version, 1u);
  EXPECT_EQ(info->order, report->order);
  ASSERT_TRUE(info->algorithm.has_value());
  EXPECT_EQ(*info->algorithm, api::Algorithm::Mfti);
  EXPECT_EQ(info->fit_seconds, report->seconds);

  // The published model serves the fit through the engine.
  serving::ServingEngine engine(registry);
  const api::ModelHandle direct(*report);
  const auto points = grid_points(7);
  const auto response = engine.evaluate({"fitted", points});
  ASSERT_TRUE(response);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(max_diff(response->values[i], direct.evaluate(points[i])), 0.0);
  }
}

TEST(AsyncFitter, SubmitWithoutNameFitsWithoutPublishing) {
  serving::ModelRegistry registry;
  serving::AsyncFitter fits(registry);
  api::FitRequest request;
  request.samples = sp::sample_system(make_system(8, 2, 101),
                                      sp::log_grid(10.0, 1e5, 8));
  ASSERT_TRUE(fits.submit(std::move(request)).get());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(AsyncFitter, CancellationLeavesRegistryUnchanged) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(8, 2, 110));
  const auto before = registry.info("m");
  ASSERT_TRUE(before);

  serving::AsyncFitter fits(registry);
  // A fit that would run many iterations; cancel it from its own progress
  // callback after the second one.
  api::FitRequest request;
  request.samples = sp::sample_system(make_system(10, 2, 111),
                                      sp::log_grid(10.0, 1e5, 16));
  mfti::core::RecursiveMftiOptions opts;
  opts.units_per_iteration = 1;
  opts.threshold = -1.0;
  request.strategy = api::RecursiveMftiStrategy{opts};
  const api::CancellationToken token = request.cancel;
  request.progress = [token](const api::FitProgress& p) {
    if (p.stage == "iteration" && p.iteration == 2) token.cancel();
  };

  const auto report = fits.submit(std::move(request), "m").get();
  ASSERT_FALSE(report);
  EXPECT_EQ(report.status().code(), api::StatusCode::Cancelled);

  // Registry exactly as before: same single model, same version, same
  // snapshot metadata.
  EXPECT_EQ(registry.size(), 1u);
  const auto after = registry.info("m");
  ASSERT_TRUE(after);
  EXPECT_EQ(after->version, before->version);
  EXPECT_EQ(after->order, before->order);
  EXPECT_EQ(after->published_at, before->published_at);
}

TEST(AsyncFitter, QueuedJobsDrainInOrderAndWaitIdle) {
  serving::ModelRegistry registry;
  serving::AsyncFitter fits(registry);
  std::vector<std::future<api::Expected<api::FitReport>>> futures;
  for (int job = 0; job < 3; ++job) {
    api::FitRequest request;
    request.samples = sp::sample_system(
        make_system(8, 2, 120 + static_cast<std::uint64_t>(job)),
        sp::log_grid(10.0, 1e5, 8));
    futures.push_back(fits.submit(std::move(request), "queued"));
  }
  fits.wait_idle();
  EXPECT_EQ(fits.pending(), 0u);
  for (auto& f : futures) ASSERT_TRUE(f.get());
  // Three successful publishes under one name: version 3 is live with one
  // rollback step held.
  EXPECT_EQ(registry.info("queued")->version, 3u);
}

TEST(AsyncFitter, DestructorCancelsOutstandingJobs) {
  serving::ModelRegistry registry;
  std::future<api::Expected<api::FitReport>> orphan;
  {
    serving::AsyncFitter fits(registry);
    // A long recursive fit plus a queued one behind it.
    api::FitRequest slow;
    slow.samples = sp::sample_system(make_system(12, 2, 130),
                                     sp::log_grid(10.0, 1e5, 24));
    mfti::core::RecursiveMftiOptions opts;
    opts.units_per_iteration = 1;
    opts.threshold = -1.0;
    slow.strategy = api::RecursiveMftiStrategy{opts};
    fits.submit(std::move(slow), "slow");
    api::FitRequest queued;
    queued.samples = sp::sample_system(make_system(8, 2, 131),
                                       sp::log_grid(10.0, 1e5, 8));
    orphan = fits.submit(std::move(queued), "queued");
  }  // destructor cancels + drains
  const auto report = orphan.get();  // future resolved, never abandoned
  if (!report) {
    EXPECT_EQ(report.status().code(), api::StatusCode::Cancelled);
    EXPECT_EQ(registry.lookup("queued"), nullptr);
  }
  // "slow" either finished before the cancel landed (published) or was
  // cancelled (absent); both leave the registry consistent.
  SUCCEED();
}
