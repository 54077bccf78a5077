// Tests for the Loewner framework: tangential data generation (eqs. (6)-(9)),
// Loewner/shifted-Loewner matrices (eqs. (11)-(12)), the Sylvester
// identities (13), the real transform (Lemma 3.2) and the SVD realization
// (Lemmas 3.1/3.4).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "linalg/norms.hpp"
#include "linalg/svd.hpp"
#include "loewner/matrices.hpp"
#include "loewner/real_transform.hpp"
#include "loewner/realization.hpp"
#include "loewner/tangential.hpp"
#include "metrics/error.hpp"
#include "sampling/grid.hpp"
#include "sampling/sampler.hpp"
#include "statespace/random_system.hpp"
#include "statespace/response.hpp"

namespace la = mfti::la;
namespace ss = mfti::ss;
namespace sp = mfti::sampling;
namespace lw = mfti::loewner;
using la::CMat;
using la::Complex;
using la::Mat;

namespace {

// Small ground-truth system shared across tests.
ss::DescriptorSystem make_system(std::size_t order, std::size_t ports,
                                 std::size_t rank_d, std::uint64_t seed) {
  la::Rng rng(seed);
  ss::RandomSystemOptions opts;
  opts.order = order;
  opts.num_outputs = ports;
  opts.num_inputs = ports;
  opts.rank_d = rank_d;
  opts.f_min_hz = 10.0;
  opts.f_max_hz = 1e5;
  return ss::random_stable_mimo(opts, rng);
}

sp::SampleSet sample(const ss::DescriptorSystem& sys, std::size_t k) {
  return sp::sample_system(sys, sp::log_grid(10.0, 1e5, k));
}

}  // namespace

TEST(TangentialData, StructureForUniformT) {
  const auto sys = make_system(8, 3, 0, 1);
  const auto data = sample(sys, 6);
  lw::TangentialOptions opts;
  opts.uniform_t = 2;
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  // 6 samples: 3 right pairs + 3 left pairs, each pair 2*t wide.
  EXPECT_EQ(td.num_right_pairs(), 3u);
  EXPECT_EQ(td.num_left_pairs(), 3u);
  EXPECT_EQ(td.right_width(), 12u);
  EXPECT_EQ(td.left_height(), 12u);
  EXPECT_EQ(td.num_inputs(), 3u);
  EXPECT_EQ(td.num_outputs(), 3u);
  EXPECT_NO_THROW(td.validate());
}

TEST(TangentialData, DefaultTIsFullMatrix) {
  const auto sys = make_system(8, 3, 0, 2);
  const auto data = sample(sys, 4);
  const lw::TangentialData td = lw::build_tangential_data(data, {});
  EXPECT_EQ(td.right_t[0], 3u);          // min(m, p)
  EXPECT_EQ(td.right_width(), 12u);      // 2 pairs * 2 * t
  EXPECT_EQ(td.left_height(), 12u);
}

TEST(TangentialData, AlternatingFrequencySplit) {
  const auto sys = make_system(6, 2, 0, 3);
  const auto data = sample(sys, 6);
  const lw::TangentialData td = lw::build_tangential_data(data, {});
  const auto f = data.frequencies();
  // Even-position samples are right points, odd are left points.
  EXPECT_EQ(td.right_freq_hz[0], f[0]);
  EXPECT_EQ(td.left_freq_hz[0], f[1]);
  EXPECT_EQ(td.right_freq_hz[1], f[2]);
  EXPECT_EQ(td.left_freq_hz[1], f[3]);
}

TEST(TangentialData, ConjugatePointsInterleaved) {
  const auto sys = make_system(6, 2, 0, 4);
  const auto data = sample(sys, 4);
  lw::TangentialOptions opts;
  opts.uniform_t = 2;
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  // First pair occupies columns 0..3: lambda, lambda, conj, conj.
  EXPECT_EQ(td.lambda[0], td.lambda[1]);
  EXPECT_EQ(td.lambda[2], std::conj(td.lambda[0]));
  EXPECT_GT(td.lambda[0].imag(), 0.0);
}

TEST(TangentialData, WEqualsSTimesR) {
  const auto sys = make_system(6, 3, 1, 5);
  const auto data = sample(sys, 4);
  lw::TangentialOptions opts;
  opts.uniform_t = 2;
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  // Check W = S * R on the first (non-conjugate) half of right pair 0.
  const CMat s0 = data[0].s;
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < 3; ++i) {
      Complex acc{};
      for (std::size_t q = 0; q < 3; ++q) acc += s0(i, q) * td.r(q, c);
      EXPECT_NEAR(std::abs(acc - td.w(i, c)), 0.0, 1e-12);
    }
  }
}

TEST(TangentialData, PerSampleTWeights) {
  const auto sys = make_system(6, 3, 0, 6);
  const auto data = sample(sys, 4);
  lw::TangentialOptions opts;
  opts.t_per_sample = {3, 2, 2, 1};
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  EXPECT_EQ(td.right_t[0], 3u);
  EXPECT_EQ(td.right_t[1], 2u);
  EXPECT_EQ(td.left_t[0], 2u);
  EXPECT_EQ(td.left_t[1], 1u);
  EXPECT_EQ(td.right_width(), 2u * (3u + 2u));
  EXPECT_EQ(td.left_height(), 2u * (2u + 1u));
}

TEST(TangentialData, InvalidOptionsThrow) {
  const auto sys = make_system(4, 2, 0, 7);
  const auto data = sample(sys, 4);
  lw::TangentialOptions opts;
  opts.uniform_t = 5;  // > min(m, p)
  EXPECT_THROW(lw::build_tangential_data(data, opts), std::invalid_argument);
  opts.uniform_t = 0;
  opts.t_per_sample = {1, 1};  // wrong length
  EXPECT_THROW(lw::build_tangential_data(data, opts), std::invalid_argument);
  EXPECT_THROW(lw::build_tangential_data(data.prefix(1), {}),
               std::invalid_argument);
}

TEST(TangentialData, ValidateCatchesCorruption) {
  const auto sys = make_system(4, 2, 0, 8);
  const auto data = sample(sys, 4);
  lw::TangentialData td = lw::build_tangential_data(data, {});
  td.lambda[0] = Complex(1.0, 2.0);  // breaks conjugate pairing
  EXPECT_THROW(td.validate(), std::invalid_argument);
}

TEST(TangentialData, PairRangeBookkeeping) {
  const auto sys = make_system(4, 2, 0, 9);
  const auto data = sample(sys, 4);
  lw::TangentialOptions opts;
  opts.t_per_sample = {2, 1, 1, 2};
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  const auto [r0, r1] = td.right_pair_cols(0);
  EXPECT_EQ(r0, 0u);
  EXPECT_EQ(r1, 4u);
  const auto [r2, r3] = td.right_pair_cols(1);
  EXPECT_EQ(r2, 4u);
  EXPECT_EQ(r3, 6u);
  EXPECT_THROW(td.right_pair_cols(2), std::invalid_argument);
  EXPECT_THROW(td.left_pair_rows(9), std::invalid_argument);
}

// --- Loewner matrices + Sylvester identities --------------------------------

struct LoewnerCase {
  std::size_t order;
  std::size_t ports;
  std::size_t rank_d;
  std::size_t samples;
  std::size_t t;  // 0 = full
};

class LoewnerProperty : public ::testing::TestWithParam<LoewnerCase> {};

TEST_P(LoewnerProperty, SylvesterEquationsHold) {
  const auto c = GetParam();
  const auto sys = make_system(c.order, c.ports, c.rank_d, 11 + c.order);
  const auto data = sample(sys, c.samples);
  lw::TangentialOptions opts;
  opts.uniform_t = c.t;
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  const auto [ll, sll] = lw::loewner_pair(td);
  const auto [r1, r2] = lw::sylvester_residuals(td, ll, sll);
  EXPECT_LT(r1, 1e-10);
  EXPECT_LT(r2, 1e-10);
}

TEST_P(LoewnerProperty, PairMatchesIndividualConstruction) {
  const auto c = GetParam();
  const auto sys = make_system(c.order, c.ports, c.rank_d, 23 + c.order);
  const auto data = sample(sys, c.samples);
  lw::TangentialOptions opts;
  opts.uniform_t = c.t;
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  const auto [ll, sll] = lw::loewner_pair(td);
  EXPECT_TRUE(la::approx_equal(ll, lw::loewner_matrix(td), 1e-12, 1e-12));
  EXPECT_TRUE(
      la::approx_equal(sll, lw::shifted_loewner_matrix(td), 1e-12, 1e-12));
}

TEST_P(LoewnerProperty, RealTransformProducesRealPencil) {
  const auto c = GetParam();
  const auto sys = make_system(c.order, c.ports, c.rank_d, 37 + c.order);
  const auto data = sample(sys, c.samples);
  lw::TangentialOptions opts;
  opts.uniform_t = c.t;
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  // real_transform itself throws if any output fails the realness check,
  // so reaching here is the assertion; spot-check shapes too.
  const lw::RealLoewnerPencil rp = lw::real_transform(td);
  EXPECT_EQ(rp.loewner.rows(), td.left_height());
  EXPECT_EQ(rp.loewner.cols(), td.right_width());
  EXPECT_EQ(rp.v.cols(), td.num_inputs());
  EXPECT_EQ(rp.w.rows(), td.num_outputs());
}

TEST_P(LoewnerProperty, RealTransformPreservesSingularValues) {
  const auto c = GetParam();
  const auto sys = make_system(c.order, c.ports, c.rank_d, 53 + c.order);
  const auto data = sample(sys, c.samples);
  lw::TangentialOptions opts;
  opts.uniform_t = c.t;
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  const auto [ll, sll] = lw::loewner_pair(td);
  const lw::RealLoewnerPencil rp = lw::real_transform(td, ll, sll);
  // T is unitary, so singular values are invariant.
  const auto s_before = la::singular_values(ll);
  const auto s_after = la::singular_values(rp.loewner);
  ASSERT_EQ(s_before.size(), s_after.size());
  for (std::size_t i = 0; i < s_before.size(); ++i) {
    EXPECT_NEAR(s_before[i], s_after[i],
                1e-8 * (1.0 + std::abs(s_before[0])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LoewnerProperty,
    ::testing::Values(LoewnerCase{6, 2, 0, 6, 0}, LoewnerCase{8, 3, 1, 6, 2},
                      LoewnerCase{10, 2, 2, 8, 1},
                      LoewnerCase{12, 4, 4, 6, 0},
                      LoewnerCase{5, 3, 0, 7, 2},   // odd sample count
                      LoewnerCase{16, 2, 1, 10, 2}));

namespace {

// Entry-wise |got - Re(dense)| <= 4 eps of the largest entry.
void expect_close(const Mat& got, const CMat& dense, const char* what) {
  const Mat want = la::real_part(dense);
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  const double bound = 4.0 * std::numeric_limits<double>::epsilon() *
                       std::max(want.max_abs(), got.max_abs());
  double worst = 0.0;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      worst = std::max(worst, std::abs(got(i, j) - want(i, j)));
    }
  }
  EXPECT_LE(worst, bound) << what;
}

}  // namespace

// real_transform applies T_L^* and T_R as pair sums; the dense products
// with pair_transform are the oracle. The sums follow the dense order, so
// the default build is bitwise equal, but FMA contraction (MFTI_NATIVE,
// AVX2 GEMM kernels) may round differently: allow 4 eps of the largest
// entry.
TEST(LoewnerMatrices, RealTransformMatchesDensePairTransform) {
  // 7 samples with t cycling 1, 2, 3: right pairs take t = 1, 3, 2, 1
  // (Kr = 14) and left pairs t = 2, 1, 3 (Kl = 12).
  const auto sys = make_system(9, 3, 1, 71);
  const auto data = sample(sys, 7);
  lw::TangentialOptions opts;
  opts.t_per_sample = {1, 2, 3, 1, 2, 3, 1};
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  ASSERT_NE(td.left_height(), td.right_width());
  const auto [ll, sll] = lw::loewner_pair(td);
  const lw::RealLoewnerPencil rp = lw::real_transform(td, ll, sll);

  const CMat t_left_adj = lw::pair_transform(td.left_t).adjoint();
  const CMat t_right = lw::pair_transform(td.right_t);
  expect_close(rp.loewner, t_left_adj * ll * t_right, "LL");
  expect_close(rp.shifted, t_left_adj * sll * t_right, "sLL");
  expect_close(rp.v, t_left_adj * td.v, "V");
  expect_close(rp.w, td.w * t_right, "W");
}

TEST(LoewnerMatrices, RealTransformRejectsNonConjugateData) {
  const auto sys = make_system(6, 3, 0, 73);
  const auto data = sample(sys, 6);
  lw::TangentialOptions opts;
  opts.t_per_sample = {1, 2, 3, 1, 2, 3};
  const lw::TangentialData td = lw::build_tangential_data(data, opts);
  const auto [ll, sll] = lw::loewner_pair(td);
  // One pencil entry off its conjugate partner.
  CMat bent_ll = ll;
  bent_ll(0, 0) += Complex(0.0, 0.5 * (1.0 + ll.max_abs()));
  EXPECT_THROW(lw::real_transform(td, bent_ll, sll), std::invalid_argument);
  CMat bent_sll = sll;
  bent_sll(0, 0) += Complex(0.0, 0.5 * (1.0 + sll.max_abs()));
  EXPECT_THROW(lw::real_transform(td, ll, bent_sll), std::invalid_argument);
  // One port-data entry off its conjugate partner.
  lw::TangentialData bad_w = td;
  bad_w.w(0, 0) += Complex(0.0, 0.5 * (1.0 + td.w.max_abs()));
  EXPECT_THROW(lw::real_transform(bad_w, ll, sll), std::invalid_argument);
  lw::TangentialData bad_v = td;
  bad_v.v(0, 0) += Complex(0.0, 0.5 * (1.0 + td.v.max_abs()));
  EXPECT_THROW(lw::real_transform(bad_v, ll, sll), std::invalid_argument);
}

TEST(LoewnerMatrices, PairTransformIsUnitary) {
  const CMat t = lw::pair_transform({2, 1, 3});
  EXPECT_EQ(t.rows(), 12u);
  EXPECT_TRUE(la::approx_equal(t.adjoint() * t, CMat::identity(12), 1e-12,
                               1e-12));
}

TEST(LoewnerMatrices, CoincidentPointsThrow) {
  // Hand-craft data where a left point equals a right point.
  lw::TangentialData td;
  const Complex j(0.0, 1.0);
  td.lambda = {j, -j};
  td.mu = {j, -j};  // same as lambda -> must throw
  td.r = CMat(1, 2, Complex(1, 0));
  td.w = CMat(1, 2, Complex(1, 0));
  td.l = CMat(2, 1, Complex(1, 0));
  td.v = CMat(2, 1, Complex(1, 0));
  td.right_t = {1};
  td.left_t = {1};
  td.right_freq_hz = {1.0};
  td.left_freq_hz = {1.0};
  EXPECT_THROW(lw::loewner_matrix(td), std::invalid_argument);
  EXPECT_THROW(lw::shifted_loewner_matrix(td), std::invalid_argument);
}

// --- Rank structure (Lemma 3.3 / Fig. 1) -------------------------------------

TEST(LoewnerRank, DropsAtOrderAndOrderPlusRankD) {
  // Oversampled MFTI data: rank(LL) ~ order, rank(x0 LL - sLL) ~ order +
  // rank(D) — the Fig. 1 drop positions.
  const std::size_t order = 10, ports = 4, rank_d = 3;
  const auto sys = make_system(order, ports, rank_d, 71);
  const auto data = sample(sys, 10);  // K = 10*4 = 40 >> 13
  const lw::TangentialData td = lw::build_tangential_data(data, {});
  const lw::PencilSingularValues sv = lw::pencil_singular_values(td);
  EXPECT_EQ(la::rank_by_largest_gap(sv.loewner, 1e3), order);
  EXPECT_EQ(la::rank_by_largest_gap(sv.pencil, 1e3), order + rank_d);
}

TEST(LoewnerRank, Lemma33UpperBound) {
  const std::size_t order = 8, ports = 3, rank_d = 2;
  const auto sys = make_system(order, ports, rank_d, 73);
  const auto data = sample(sys, 12);  // K = 36 > 10
  const lw::TangentialData td = lw::build_tangential_data(data, {});
  const lw::PencilSingularValues sv = lw::pencil_singular_values(td);
  EXPECT_LE(la::numerical_rank(sv.pencil, 1e-8), order + rank_d);
  EXPECT_LE(la::numerical_rank(sv.loewner, 1e-8), order + rank_d);
}

// --- Realization -------------------------------------------------------------

TEST(Realization, RecoversSystemNoiseFree) {
  const std::size_t order = 12, ports = 3, rank_d = 3;
  const auto sys = make_system(order, ports, rank_d, 101);
  const auto data = sample(sys, 12);
  const lw::TangentialData td = lw::build_tangential_data(data, {});
  const lw::Realization real = lw::realize(td);
  EXPECT_EQ(real.order, order + rank_d);
  EXPECT_LT(mfti::metrics::model_error(real.model, data), 1e-8);
}

TEST(Realization, ModelMatchesOffSampleFrequencies) {
  const std::size_t order = 10, ports = 2, rank_d = 1;
  const auto sys = make_system(order, ports, rank_d, 103);
  const auto data = sample(sys, 14);
  const lw::Realization real = lw::realize(lw::build_tangential_data(data, {}));
  // Evaluate on a much denser grid than the fit used.
  const auto dense = sample(sys, 57);
  EXPECT_LT(mfti::metrics::model_error(real.model, dense), 1e-6);
}

TEST(Realization, ComplexShiftedPencilSatisfiesInterpolation) {
  const std::size_t order = 8, ports = 2, rank_d = 2;
  const auto sys = make_system(order, ports, rank_d, 107);
  const auto data = sample(sys, 10);
  const lw::TangentialData td = lw::build_tangential_data(data, {});
  lw::RealizationOptions opts;
  opts.pencil = lw::SvdPencil::ShiftedPencil;
  const lw::ComplexRealization cr = lw::realize_complex(td, opts);
  EXPECT_EQ(cr.order, order + rank_d);
  // Right constraints H(lambda_i) R_i = W_i (eq. (10)).
  for (std::size_t pair = 0; pair < td.num_right_pairs(); ++pair) {
    const auto [c0, c1] = td.right_pair_cols(pair);
    const CMat h = ss::transfer_function(cr.model, td.lambda[c0]);
    for (std::size_t c = c0; c < c0 + td.right_t[pair]; ++c) {
      for (std::size_t i = 0; i < td.num_outputs(); ++i) {
        Complex acc{};
        for (std::size_t q = 0; q < td.num_inputs(); ++q)
          acc += h(i, q) * td.r(q, c);
        EXPECT_NEAR(std::abs(acc - td.w(i, c)), 0.0,
                    1e-7 * (1.0 + std::abs(td.w(i, c))));
      }
    }
    (void)c1;
  }
}

TEST(Realization, FullComplexRealizationInterpolates) {
  // Lemma 3.1 without truncation: K = Kl = Kr <= order keeps the pencil
  // regular; the raw (-LL, -sLL, V, W) model must satisfy (10).
  const std::size_t order = 12, ports = 2;
  const auto sys = make_system(order, ports, 2, 109);
  const auto data = sample(sys, 4);  // K = 8 < order
  const lw::TangentialData td = lw::build_tangential_data(data, {});
  const ss::ComplexDescriptorSystem model = lw::realize_full_complex(td);
  EXPECT_EQ(model.order(), td.right_width());
  for (std::size_t pair = 0; pair < td.num_left_pairs(); ++pair) {
    const auto [r0, r1] = td.left_pair_rows(pair);
    const CMat h = ss::transfer_function(model, td.mu[r0]);
    for (std::size_t r = r0; r < r0 + td.left_t[pair]; ++r) {
      for (std::size_t j = 0; j < td.num_inputs(); ++j) {
        Complex acc{};
        for (std::size_t q = 0; q < td.num_outputs(); ++q)
          acc += td.l(r, q) * h(q, j);
        EXPECT_NEAR(std::abs(acc - td.v(r, j)), 0.0,
                    1e-6 * (1.0 + std::abs(td.v(r, j))));
      }
    }
    (void)r1;
  }
}

TEST(Realization, FixedOrderSelection) {
  const auto sys = make_system(10, 2, 0, 113);
  const auto data = sample(sys, 10);
  const lw::TangentialData td = lw::build_tangential_data(data, {});
  lw::RealizationOptions opts;
  opts.selection = lw::OrderSelection::Fixed;
  opts.fixed_order = 6;
  const lw::Realization real = lw::realize(td, opts);
  EXPECT_EQ(real.order, 6u);
  EXPECT_EQ(real.model.order(), 6u);
}

TEST(Realization, ToleranceSelectionKeepsNoiseSubspace) {
  const auto sys = make_system(8, 2, 0, 127);
  const auto data = sample(sys, 8);
  const lw::TangentialData td = lw::build_tangential_data(data, {});
  lw::RealizationOptions tight;
  tight.selection = lw::OrderSelection::Tolerance;
  tight.rank_tol = 1e-9;
  lw::RealizationOptions loose;
  loose.selection = lw::OrderSelection::Tolerance;
  loose.rank_tol = 1e-2;
  EXPECT_GE(lw::realize(td, tight).order, lw::realize(td, loose).order);
}

TEST(Realization, RejectsSquarePencilMismatch) {
  const auto sys = make_system(6, 2, 0, 131);
  const auto data = sample(sys, 5);  // odd -> Kl != Kr
  const lw::TangentialData td = lw::build_tangential_data(data, {});
  EXPECT_THROW(lw::realize_full_complex(td), std::invalid_argument);
}

TEST(Realization, RealizedModelIsRealAndValid) {
  const auto sys = make_system(10, 3, 1, 137);
  const auto data = sample(sys, 8);
  const lw::Realization real =
      lw::realize(lw::build_tangential_data(data, {}));
  EXPECT_NO_THROW(real.model.validate());
  EXPECT_EQ(real.model.num_inputs(), 3u);
  EXPECT_EQ(real.model.num_outputs(), 3u);
}
