// Tests for the unified API (src/api): Status/Expected, SampleSet ingest
// validation, the Fitter facade (strategy swap must reproduce each legacy
// entry point bit-for-bit; error paths must come back as Status, never
// exceptions), and the ModelHandle serving wrapper (parity with the
// dense-LU reference on hard pencils, poles, concurrent queries).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/mfti.hpp"
#include "core/recursive_mfti.hpp"
#include "hard_pencils.hpp"
#include "parallel/thread_pool.hpp"
#include "sampling/grid.hpp"
#include "sampling/sampler.hpp"
#include "statespace/random_system.hpp"
#include "statespace/response.hpp"
#include "vf/vector_fitting.hpp"
#include "vfti/vfti.hpp"

namespace api = mfti::api;
namespace la = mfti::la;
namespace par = mfti::parallel;
namespace sp = mfti::sampling;
namespace ss = mfti::ss;
using la::CMat;
using la::Complex;
using la::Mat;

namespace {

// Largest entry-wise difference between two same-shape matrices.
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

void expect_same_system(const ss::DescriptorSystem& a,
                        const ss::DescriptorSystem& b) {
  EXPECT_EQ(max_diff(a.e, b.e), 0.0);
  EXPECT_EQ(max_diff(a.a, b.a), 0.0);
  EXPECT_EQ(max_diff(a.b, b.b), 0.0);
  EXPECT_EQ(max_diff(a.c, b.c), 0.0);
  EXPECT_EQ(max_diff(a.d, b.d), 0.0);
}

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

sp::SampleSet make_samples(std::size_t order, std::size_t ports,
                           std::size_t count, std::uint64_t seed) {
  return sp::sample_system(make_system(order, ports, seed),
                           sp::log_grid(10.0, 1e5, count));
}

}  // namespace

// --- Status / Expected ------------------------------------------------------

TEST(Status, DefaultIsOkAndFactoriesCarryCodes) {
  EXPECT_TRUE(api::Status().is_ok());
  EXPECT_EQ(api::Status().to_string(), "ok");
  const api::Status s = api::Status::invalid_argument("bad dims");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), api::StatusCode::InvalidArgument);
  EXPECT_EQ(s.to_string(), "invalid-argument: bad dims");
}

TEST(Expected, ValueAndErrorStates) {
  api::Expected<int> good(42);
  EXPECT_TRUE(good);
  EXPECT_EQ(good.value(), 42);
  EXPECT_TRUE(good.status().is_ok());

  api::Expected<int> bad(api::Status::cancelled("stop"));
  EXPECT_FALSE(bad);
  EXPECT_EQ(bad.status().code(), api::StatusCode::Cancelled);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(bad.value(), std::logic_error);
  EXPECT_THROW(api::Expected<int>(api::Status::ok()), std::logic_error);
}

// --- exec propagation helper ------------------------------------------------

TEST(PropagateExec, MoreSpecificKnobWins) {
  const auto serial = par::ExecutionPolicy::serial();
  const auto pool = par::ExecutionPolicy::with_threads(4);
  EXPECT_TRUE(par::propagate_exec(serial, serial).is_serial());
  EXPECT_FALSE(par::propagate_exec(serial, pool).is_serial());
  const auto specific = par::ExecutionPolicy::with_threads(2);
  EXPECT_EQ(par::propagate_exec(specific, pool).threads, 2u);
}

// --- SampleSet ingest validation --------------------------------------------

TEST(SampleSetCreate, ValidDataSortedByFrequency) {
  const CMat m = CMat::identity(2);
  auto set = sp::SampleSet::create({{3.0, m}, {1.0, m}, {2.0, m}});
  ASSERT_TRUE(set);
  EXPECT_EQ(set->size(), 3u);
  EXPECT_EQ(set->frequencies(), (std::vector<la::Real>{1.0, 2.0, 3.0}));
}

TEST(SampleSetCreate, MismatchedDimensionsReported) {
  const auto set =
      sp::SampleSet::create({{1.0, CMat::identity(2)},
                             {2.0, CMat::identity(3)}});
  ASSERT_FALSE(set);
  EXPECT_EQ(set.status().code(), api::StatusCode::InvalidArgument);
  EXPECT_NE(set.status().message().find("port dimensions"),
            std::string::npos);
}

TEST(SampleSetCreate, NonFiniteDataReported) {
  CMat m = CMat::identity(2);
  m(0, 1) = Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);
  EXPECT_FALSE(sp::SampleSet::create({{1.0, m}}));

  const CMat ok = CMat::identity(2);
  EXPECT_FALSE(sp::SampleSet::create(
      {{std::numeric_limits<double>::infinity(), ok}}));
  EXPECT_FALSE(sp::SampleSet::create({{-1.0, ok}}));
  EXPECT_FALSE(sp::SampleSet::create({{1.0, ok}, {1.0, ok}}));
}

TEST(SampleSetCreate, ThrowingConstructorSharesTheValidator) {
  CMat m = CMat::identity(2);
  m(1, 1) = Complex(0.0, std::numeric_limits<double>::infinity());
  EXPECT_THROW(sp::SampleSet(std::vector<sp::FrequencySample>{{1.0, m}}),
               std::invalid_argument);
}

// --- Fitter: strategy swap reproduces the legacy entry points ---------------

TEST(Fitter, MftiMatchesLegacyBitForBit) {
  const sp::SampleSet data = make_samples(14, 3, 12, 101);
  mfti::core::MftiOptions opts;
  opts.data.seed = 77;

  const auto legacy = mfti::core::mfti_fit(data, opts);
  const auto report =
      api::Fitter().fit(data, api::MftiStrategy{opts});
  ASSERT_TRUE(report) << report.status().to_string();

  EXPECT_EQ(report->algorithm, api::Algorithm::Mfti);
  EXPECT_EQ(report->order, legacy.order);
  expect_same_system(report->model, legacy.model);
  ASSERT_EQ(report->singular_values.size(), legacy.singular_values.size());
  for (std::size_t i = 0; i < legacy.singular_values.size(); ++i)
    EXPECT_EQ(report->singular_values[i], legacy.singular_values[i]);
  ASSERT_TRUE(report->tangential.has_value());
  EXPECT_EQ(max_diff(report->tangential->w, legacy.data.w), 0.0);
  EXPECT_GT(report->seconds, 0.0);
  EXPECT_FALSE(report->recursive.has_value());
  EXPECT_FALSE(report->vector_fitting.has_value());
}

TEST(Fitter, RecursiveMftiMatchesLegacyBitForBit) {
  const sp::SampleSet data = make_samples(10, 2, 14, 102);
  mfti::core::RecursiveMftiOptions opts;
  opts.units_per_iteration = 2;
  opts.threshold = 1e-8;

  const auto legacy = mfti::core::recursive_mfti_fit(data, opts);
  const auto report =
      api::Fitter().fit(data, api::RecursiveMftiStrategy{opts});
  ASSERT_TRUE(report) << report.status().to_string();

  EXPECT_EQ(report->order, legacy.order);
  expect_same_system(report->model, legacy.model);
  ASSERT_TRUE(report->recursive.has_value());
  EXPECT_EQ(report->recursive->used_units, legacy.used_units);
  EXPECT_EQ(report->recursive->mean_error_history,
            legacy.mean_error_history);
  EXPECT_EQ(report->recursive->iterations, legacy.iterations);
  EXPECT_EQ(report->recursive->converged, legacy.converged);
}

TEST(Fitter, VftiMatchesLegacyBitForBit) {
  const sp::SampleSet data = make_samples(8, 2, 24, 103);
  mfti::vfti::VftiOptions opts;

  const auto legacy = mfti::vfti::vfti_fit(data, opts);
  const auto report = api::Fitter().fit(data, api::VftiStrategy{opts});
  ASSERT_TRUE(report) << report.status().to_string();

  EXPECT_EQ(report->order, legacy.order);
  expect_same_system(report->model, legacy.model);
  ASSERT_EQ(report->singular_values.size(), legacy.singular_values.size());
  for (std::size_t i = 0; i < legacy.singular_values.size(); ++i)
    EXPECT_EQ(report->singular_values[i], legacy.singular_values[i]);
}

TEST(Fitter, VectorFittingMatchesLegacyBitForBit) {
  const sp::SampleSet data = make_samples(8, 2, 30, 104);
  mfti::vf::VectorFittingOptions opts;
  opts.num_poles = 8;
  opts.iterations = 6;

  const auto legacy = mfti::vf::vector_fit(data, opts);
  const auto report =
      api::Fitter().fit(data, api::VectorFittingStrategy{opts});
  ASSERT_TRUE(report) << report.status().to_string();

  expect_same_system(report->model, legacy.model.to_state_space());
  ASSERT_TRUE(report->vector_fitting.has_value());
  const auto& diag = *report->vector_fitting;
  EXPECT_EQ(diag.num_poles, legacy.order);
  EXPECT_EQ(diag.sigma_identifiable, legacy.sigma_identifiable);
  EXPECT_EQ(diag.rms_fit_error, legacy.rms_fit_error);
  ASSERT_EQ(diag.pole_residue.poles.size(), legacy.model.poles.size());
  for (std::size_t q = 0; q < legacy.model.poles.size(); ++q)
    EXPECT_EQ(diag.pole_residue.poles[q], legacy.model.poles[q]);
  EXPECT_TRUE(report->singular_values.empty());
}

// --- Fitter: error paths come back as Status --------------------------------

TEST(Fitter, EmptySampleSetIsInvalidArgument) {
  const auto report = api::Fitter().fit(sp::SampleSet());
  ASSERT_FALSE(report);
  EXPECT_EQ(report.status().code(), api::StatusCode::InvalidArgument);
}

TEST(Fitter, TooFewSamplesIsInvalidArgumentNotThrow) {
  const sp::SampleSet data = make_samples(8, 2, 12, 105);
  const auto report = api::Fitter().fit(data.prefix(1));
  ASSERT_FALSE(report);
  EXPECT_EQ(report.status().code(), api::StatusCode::InvalidArgument);
}

TEST(Fitter, BadStrategyOptionsAreInvalidArgument) {
  const sp::SampleSet data = make_samples(8, 2, 12, 106);
  mfti::core::RecursiveMftiOptions opts;
  opts.units_per_iteration = 0;  // legacy entry point would throw
  const auto report =
      api::Fitter().fit(data, api::RecursiveMftiStrategy{opts});
  ASSERT_FALSE(report);
  EXPECT_EQ(report.status().code(), api::StatusCode::InvalidArgument);
}

TEST(Fitter, PreCancelledTokenShortCircuits) {
  api::FitRequest request;
  request.samples = make_samples(8, 2, 12, 107);
  request.cancel.cancel();
  std::size_t progress_events = 0;
  request.progress = [&](const api::FitProgress&) { ++progress_events; };
  const auto report = api::Fitter().fit(request);
  ASSERT_FALSE(report);
  EXPECT_EQ(report.status().code(), api::StatusCode::Cancelled);
  EXPECT_EQ(progress_events, 0u);  // never reached the strategy
}

TEST(Fitter, MftiCancelledBetweenStages) {
  api::FitRequest request;
  request.samples = make_samples(8, 2, 12, 108);
  // Cancel from inside the progress callback: the token flips while the
  // tangential data is being built, and the realization stage never runs.
  request.progress = [&request](const api::FitProgress& p) {
    if (p.stage == "tangential-data") request.cancel.cancel();
  };
  const auto report = api::Fitter().fit(request);
  ASSERT_FALSE(report);
  EXPECT_EQ(report.status().code(), api::StatusCode::Cancelled);
}

TEST(Fitter, RecursiveCancelledMidIterations) {
  api::FitRequest request;
  request.samples = make_samples(10, 2, 16, 109);
  mfti::core::RecursiveMftiOptions opts;
  opts.units_per_iteration = 1;
  opts.threshold = -1.0;  // would consume every unit
  request.strategy = api::RecursiveMftiStrategy{opts};
  std::size_t iterations_seen = 0;
  request.progress = [&](const api::FitProgress& p) {
    if (p.stage == "iteration") {
      ++iterations_seen;
      if (p.iteration == 2) request.cancel.cancel();
    }
  };
  const auto report = api::Fitter().fit(request);
  ASSERT_FALSE(report);
  EXPECT_EQ(report.status().code(), api::StatusCode::Cancelled);
  EXPECT_EQ(iterations_seen, 2u);
}

TEST(Fitter, UserShouldStopReturnsPartialModelNotCancelled) {
  // A user-supplied should_stop hook (e.g. a time budget) keeps the legacy
  // contract — the partial model is a successful result — while the
  // request token still maps to StatusCode::Cancelled.
  api::FitRequest request;
  request.samples = make_samples(10, 2, 16, 113);
  mfti::core::RecursiveMftiOptions opts;
  opts.units_per_iteration = 1;
  opts.threshold = -1.0;  // would consume every unit
  std::size_t polls = 0;
  opts.should_stop = [&polls] { return ++polls >= 2; };
  request.strategy = api::RecursiveMftiStrategy{opts};
  const auto report = api::Fitter().fit(request);
  ASSERT_TRUE(report) << report.status().to_string();
  ASSERT_TRUE(report->recursive.has_value());
  EXPECT_TRUE(report->recursive->stopped_early);
  EXPECT_FALSE(report->recursive->converged);
  EXPECT_EQ(report->recursive->iterations, 2u);
  EXPECT_GT(report->order, 0u);
}

TEST(Fitter, ProgressStagesInOrder) {
  api::FitRequest request;
  request.samples = make_samples(8, 2, 12, 110);
  std::vector<std::string> stages;
  request.progress = [&](const api::FitProgress& p) {
    stages.emplace_back(p.stage);
  };
  ASSERT_TRUE(api::Fitter().fit(request));
  EXPECT_EQ(stages, (std::vector<std::string>{"tangential-data",
                                              "realization", "done"}));
}

// --- ModelHandle -------------------------------------------------------------

// Served values against the dense-LU reference, on the first (evaluator
// build) and later queries alike: a random stable system, then the pencils
// a modal evaluation cannot serve (hard_pencils.hpp), each within 1e-12 of
// the largest entry. Exactly at a pole the handle throws.
TEST(ModelHandle, MatchesTransferFunctionColdAndWarm) {
  const auto sys = make_system(16, 3, 120);
  const api::ModelHandle handle(sys);
  for (int round = 0; round < 3; ++round) {
    for (double f : sp::log_grid(10.0, 1e5, 9)) {
      const Complex s(0.0, 2.0 * M_PI * f);
      EXPECT_LE(max_diff(handle.evaluate(s), ss::transfer_function(sys, s)),
                1e-12);
    }
  }
  for (const hard_pencils::Case& c : hard_pencils::cases()) {
    const api::ModelHandle hard(c.sys);
    for (int round = 0; round < 2; ++round) {
      for (const Complex& s : api::points_from_freqs_hz(c.freqs_hz)) {
        EXPECT_LE(hard_pencils::relative_diff(hard.evaluate(s),
                                              ss::transfer_function(c.sys, s)),
                  1e-12)
            << c.name << " at s = " << s;
      }
    }
  }
  const api::ModelHandle one_pole(hard_pencils::one_pole_at_minus_two());
  EXPECT_THROW(one_pole.evaluate(Complex(-2.0, 0.0)), la::SingularMatrixError);
  EXPECT_NO_THROW(one_pole.evaluate(Complex(0.0, 1.0)));
}

TEST(ModelHandle, RepeatQueriesAreBitwiseStable) {
  const auto sys = make_system(12, 2, 121);
  const api::ModelHandle handle(sys);
  const Complex s(0.0, 2.0 * M_PI * 1234.5);
  const CMat first = handle.evaluate(s);
  const CMat second = handle.evaluate(s);
  EXPECT_EQ(max_diff(first, second), 0.0);
}

TEST(ModelHandle, ServesFitReport) {
  const sp::SampleSet data = make_samples(10, 2, 10, 124);
  const auto report = api::Fitter().fit(data);
  ASSERT_TRUE(report) << report.status().to_string();
  const api::ModelHandle handle(*report);
  EXPECT_EQ(handle.order(), report->order);
  for (const auto& smp : data) {
    EXPECT_LE(max_diff(handle.response_at(smp.f_hz), smp.s), 1e-6);
  }
}

TEST(ModelHandle, SweepMatchesBatchEvaluator) {
  const auto sys = make_system(14, 3, 125);
  const api::ModelHandle handle(sys);
  const auto freqs = sp::log_grid(10.0, 1e5, 17);
  const auto reference = ss::frequency_response(sys, freqs);
  const auto served = handle.sweep(freqs);
  ASSERT_EQ(served.size(), reference.size());
  for (std::size_t i = 0; i < served.size(); ++i)
    EXPECT_LE(max_diff(served[i], reference[i]), 1e-12);
}

// Concurrent serving: many threads hammer a fresh handle, so the first
// queries race to build its evaluator (one build, the others wait) and the
// rest share it. Uses a directly constructed multi-worker pool like
// test_parallel so the test is genuinely concurrent on any host.
TEST(ModelHandle, ConcurrentQueriesAreConsistent) {
  const auto sys = make_system(18, 3, 126);
  const api::ModelHandle handle(sys);

  const auto freqs = sp::log_grid(10.0, 1e5, 8);
  std::vector<CMat> reference;
  reference.reserve(freqs.size());
  for (double f : freqs) {
    reference.push_back(
        ss::transfer_function(sys, Complex(0.0, 2.0 * M_PI * f)));
  }

  par::ThreadPool pool(4);
  const std::size_t queries = 400;
  std::atomic<int> mismatches{0};
  pool.run_batch(queries, 4, [&](std::size_t i) {
    const std::size_t k = i % freqs.size();
    const CMat h = handle.response_at(freqs[k]);
    if (max_diff(h, reference[k]) > 1e-12) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// Parallel sweep under an ExecutionPolicy, with repeated frequencies:
// every point must match the serial reference.
TEST(ModelHandle, ParallelSweepWithRepeatsMatchesSerial) {
  const auto sys = make_system(16, 2, 127);
  const api::ModelHandle handle(sys);
  const auto base = sp::log_grid(10.0, 1e5, 12);
  std::vector<double> freqs;
  for (int round = 0; round < 6; ++round)
    freqs.insert(freqs.end(), base.begin(), base.end());

  const auto serial = ss::frequency_response(sys, freqs);
  const auto served =
      handle.sweep(freqs, par::ExecutionPolicy::with_threads(4));
  ASSERT_EQ(served.size(), serial.size());
  for (std::size_t i = 0; i < served.size(); ++i)
    EXPECT_LE(max_diff(served[i], serial[i]), 1e-12);
}
