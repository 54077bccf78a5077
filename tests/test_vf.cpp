// Tests for the vector fitting baseline.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "linalg/norms.hpp"
#include "metrics/error.hpp"
#include "sampling/grid.hpp"
#include "sampling/sampler.hpp"
#include "statespace/random_system.hpp"
#include "statespace/response.hpp"
#include "vf/vector_fitting.hpp"

namespace la = mfti::la;
namespace metrics = mfti::metrics;
namespace ss = mfti::ss;
namespace sp = mfti::sampling;
namespace vf = mfti::vf;
using la::CMat;
using la::Complex;
using la::Mat;

namespace {

// A known pole-residue ground truth.
ss::PoleResidueModel known_model() {
  ss::PoleResidueModel m;
  const Complex a1(-100.0, 2.0 * std::numbers::pi * 1e3);
  const Complex a2(-2000.0, 2.0 * std::numbers::pi * 2e4);
  m.poles = {a1, std::conj(a1), a2, std::conj(a2), Complex(-500.0, 0.0)};
  la::Rng rng(3);
  const CMat r1 = la::random_complex_matrix(2, 2, rng) * Complex(1e3, 0.0);
  const CMat r2 = la::random_complex_matrix(2, 2, rng) * Complex(5e3, 0.0);
  Mat r3 = la::random_matrix(2, 2, rng) * 200.0;
  m.residues = {r1, r1.conjugate(), r2, r2.conjugate(), la::to_complex(r3)};
  m.d = Mat{{0.3, -0.1}, {0.2, 0.5}};
  return m;
}

sp::SampleSet sample_model(const ss::PoleResidueModel& m, std::size_t k) {
  std::vector<sp::FrequencySample> raw;
  for (double f : sp::log_grid(10.0, 1e5, k)) {
    raw.push_back(
        {f, m.evaluate(Complex(0.0, 2.0 * std::numbers::pi * f))});
  }
  return sp::SampleSet(std::move(raw));
}

}  // namespace

TEST(PoleResidueModel, EvaluateIsConjugateSymmetric) {
  const ss::PoleResidueModel m = known_model();
  const Complex s(0.0, 1234.0);
  const CMat hp = m.evaluate(s);
  const CMat hm = m.evaluate(std::conj(s));
  EXPECT_TRUE(la::approx_equal(hm, hp.conjugate(), 1e-10, 1e-10));
}

TEST(PoleResidueModel, StateSpaceRealizationMatchesEvaluate) {
  const ss::PoleResidueModel m = known_model();
  const ss::DescriptorSystem sys = m.to_state_space();
  EXPECT_EQ(sys.order(), m.poles.size() * 2);  // n poles * m inputs
  for (double f : {50.0, 1e3, 7e4}) {
    const Complex s(0.0, 2.0 * std::numbers::pi * f);
    EXPECT_TRUE(la::approx_equal(ss::transfer_function(sys, s),
                                 m.evaluate(s), 1e-8, 1e-10));
  }
}

TEST(VectorFit, RecoversRationalDataAtExactOrder) {
  const ss::PoleResidueModel truth = known_model();
  const sp::SampleSet data = sample_model(truth, 40);
  vf::VectorFittingOptions opts;
  opts.num_poles = 5;
  opts.iterations = 10;
  const vf::VectorFittingResult fit = vf::vector_fit(data, opts);
  EXPECT_TRUE(fit.sigma_identifiable);
  EXPECT_LT(metrics::model_error(fit.model, data), 1e-6);
}

TEST(VectorFit, RelocatedPolesMatchTruth) {
  const ss::PoleResidueModel truth = known_model();
  const sp::SampleSet data = sample_model(truth, 60);
  vf::VectorFittingOptions opts;
  opts.num_poles = 5;
  opts.iterations = 12;
  const vf::VectorFittingResult fit = vf::vector_fit(data, opts);
  // Every true pole should have a fitted pole nearby (relative 1e-3).
  for (const Complex& p : truth.poles) {
    double best = 1e300;
    for (const Complex& q : fit.model.poles) {
      best = std::min(best, std::abs(p - q) / std::abs(p));
    }
    EXPECT_LT(best, 1e-3);
  }
}

TEST(VectorFit, OverOrderStillFits) {
  const ss::PoleResidueModel truth = known_model();
  const sp::SampleSet data = sample_model(truth, 50);
  vf::VectorFittingOptions opts;
  opts.num_poles = 12;  // more than the true 5
  opts.iterations = 8;
  const vf::VectorFittingResult fit = vf::vector_fit(data, opts);
  EXPECT_LT(metrics::model_error(fit.model, data), 1e-5);
}

TEST(VectorFit, FitsStateSpaceSampledData) {
  la::Rng rng(31);
  ss::RandomSystemOptions sopts;
  sopts.order = 10;
  sopts.num_outputs = 3;
  sopts.num_inputs = 3;
  sopts.rank_d = 3;
  const ss::DescriptorSystem sys = ss::random_stable_mimo(sopts, rng);
  const sp::SampleSet data =
      sp::sample_system(sys, sp::log_grid(10.0, 1e5, 50));
  vf::VectorFittingOptions opts;
  opts.num_poles = 10;
  opts.iterations = 10;
  const vf::VectorFittingResult fit = vf::vector_fit(data, opts);
  EXPECT_LT(metrics::model_error(fit.model, data), 1e-4);
}

TEST(VectorFit, EnforcesStability) {
  const ss::PoleResidueModel truth = known_model();
  const sp::SampleSet data = sample_model(truth, 30);
  vf::VectorFittingOptions opts;
  opts.num_poles = 7;
  opts.iterations = 6;
  const vf::VectorFittingResult fit = vf::vector_fit(data, opts);
  for (const Complex& p : fit.model.poles) EXPECT_LT(p.real(), 0.0);
}

TEST(VectorFit, DegenerateOrderFlaggedAndSurvives) {
  // More poles than data equations: 2k <= n+1.
  const ss::PoleResidueModel truth = known_model();
  const sp::SampleSet data = sample_model(truth, 10);  // 20 real equations
  vf::VectorFittingOptions opts;
  opts.num_poles = 24;
  opts.iterations = 5;
  const vf::VectorFittingResult fit = vf::vector_fit(data, opts);
  EXPECT_FALSE(fit.sigma_identifiable);
  EXPECT_EQ(fit.order, 24u);
  // Min-norm interpolation: fit error at the samples stays bounded.
  EXPECT_LT(fit.rms_fit_error, 1.0);
}

TEST(VectorFit, OddPoleCountUsesARealPole) {
  const ss::PoleResidueModel truth = known_model();
  const sp::SampleSet data = sample_model(truth, 30);
  vf::VectorFittingOptions opts;
  opts.num_poles = 5;
  opts.iterations = 4;
  const vf::VectorFittingResult fit = vf::vector_fit(data, opts);
  std::size_t reals = 0;
  for (const Complex& p : fit.model.poles) {
    if (std::abs(p.imag()) <= 1e-8 * std::abs(p)) ++reals;
  }
  EXPECT_GE(reals, 1u);
}

TEST(VectorFit, RelaxedVariantRecoversRationalData) {
  const ss::PoleResidueModel truth = known_model();
  const sp::SampleSet data = sample_model(truth, 40);
  vf::VectorFittingOptions opts;
  opts.num_poles = 5;
  opts.iterations = 10;
  opts.relaxed = true;
  const vf::VectorFittingResult fit = vf::vector_fit(data, opts);
  EXPECT_LT(metrics::model_error(fit.model, data), 1e-6);
}

TEST(VectorFit, RelaxedMatchesClassicPoleEstimates) {
  const ss::PoleResidueModel truth = known_model();
  const sp::SampleSet data = sample_model(truth, 50);
  vf::VectorFittingOptions classic;
  classic.num_poles = 5;
  classic.iterations = 12;
  vf::VectorFittingOptions relaxed = classic;
  relaxed.relaxed = true;
  const auto f1 = vf::vector_fit(data, classic);
  const auto f2 = vf::vector_fit(data, relaxed);
  // Both recover the same true poles.
  for (const Complex& p : truth.poles) {
    double d1 = 1e300, d2 = 1e300;
    for (const Complex& q : f1.model.poles)
      d1 = std::min(d1, std::abs(p - q) / std::abs(p));
    for (const Complex& q : f2.model.poles)
      d2 = std::min(d2, std::abs(p - q) / std::abs(p));
    EXPECT_LT(d1, 1e-3);
    EXPECT_LT(d2, 1e-3);
  }
}

TEST(VectorFit, RelaxedConvergesFromPoorInitialPoles) {
  // Start with poles bunched at the band edge: relaxed sigma is the
  // standard remedy for slow relocation in this regime.
  const ss::PoleResidueModel truth = known_model();
  const sp::SampleSet data = sample_model(truth, 50);
  vf::VectorFittingOptions opts;
  opts.num_poles = 7;
  opts.iterations = 15;
  opts.initial_real_ratio = 1.0;  // heavily damped, poor start
  opts.relaxed = true;
  const vf::VectorFittingResult fit = vf::vector_fit(data, opts);
  EXPECT_LT(metrics::model_error(fit.model, data), 1e-4);
}

TEST(VectorFit, InvalidArgumentsThrow) {
  const ss::PoleResidueModel truth = known_model();
  const sp::SampleSet data = sample_model(truth, 10);
  vf::VectorFittingOptions opts;
  opts.num_poles = 0;
  EXPECT_THROW(vf::vector_fit(data, opts), std::invalid_argument);
  EXPECT_THROW(vf::vector_fit(data.prefix(1), {}), std::invalid_argument);
  EXPECT_THROW(metrics::model_error(truth, sp::SampleSet()),
               std::invalid_argument);
}
