// Unit and property tests for the SVD (one-sided Jacobi, Golub–Kahan and
// their single-factor modes) and the rank / gap-detection helpers that
// drive the Loewner order selection.

#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include "linalg/norms.hpp"
#include "linalg/random.hpp"

namespace la = mfti::la;
using la::CMat;
using la::Complex;
using la::Mat;

TEST(Svd, DiagonalMatrix) {
  Mat a = Mat::diagonal({3.0, 1.0, 2.0});
  auto d = la::svd(a);
  ASSERT_EQ(d.s.size(), 3u);
  EXPECT_NEAR(d.s[0], 3.0, 1e-12);
  EXPECT_NEAR(d.s[1], 2.0, 1e-12);
  EXPECT_NEAR(d.s[2], 1.0, 1e-12);
}

TEST(Svd, EmptyMatrix) {
  auto d = la::svd(Mat());
  EXPECT_TRUE(d.s.empty());
  EXPECT_TRUE(d.u.empty());
  EXPECT_TRUE(d.v.empty());
}

TEST(Svd, SingleColumn) {
  Mat a{{3.0}, {4.0}};
  auto d = la::svd(a);
  ASSERT_EQ(d.s.size(), 1u);
  EXPECT_NEAR(d.s[0], 5.0, 1e-12);
  EXPECT_TRUE(la::approx_equal(d.reconstruct(), a, 1e-12, 1e-12));
}

TEST(Svd, RankOneMatrix) {
  la::Rng rng(11);
  Mat u = la::random_matrix(6, 1, rng);
  Mat v = la::random_matrix(4, 1, rng);
  Mat a = u * v.transpose();
  auto d = la::svd(a);
  EXPECT_EQ(la::numerical_rank(d.s), 1u);
  EXPECT_TRUE(la::approx_equal(d.reconstruct(), a, 1e-10, 1e-10));
}

TEST(Svd, ZeroMatrixHasZeroRank) {
  auto d = la::svd(Mat(3, 3));
  EXPECT_EQ(la::numerical_rank(d.s), 0u);
  for (double s : d.s) EXPECT_EQ(s, 0.0);
}

TEST(Svd, TwoNormOfKnownMatrix) {
  // ||A||_2 of [[1,0],[0,0]] padded is exactly 1.
  Mat a(3, 3);
  a(0, 0) = 1.0;
  EXPECT_NEAR(la::two_norm(a), 1.0, 1e-12);
}

TEST(NumericalRank, ThresholdBehaviour) {
  EXPECT_EQ(la::numerical_rank({1.0, 0.5, 1e-14}), 2u);
  EXPECT_EQ(la::numerical_rank({1.0, 0.5, 1e-14}, 1e-16), 3u);
  EXPECT_EQ(la::numerical_rank({}), 0u);
  EXPECT_EQ(la::numerical_rank({0.0, 0.0}), 0u);
}

TEST(RankByLargestGap, FindsSharpDrop) {
  // A clean drop of 10 orders of magnitude after 3 values.
  std::vector<double> s{10.0, 5.0, 2.0, 2e-10, 1e-10};
  EXPECT_EQ(la::rank_by_largest_gap(s), 3u);
}

TEST(RankByLargestGap, NoDropReturnsFullLength) {
  std::vector<double> s{8.0, 4.0, 2.0, 1.0};
  EXPECT_EQ(la::rank_by_largest_gap(s), s.size());
}

TEST(RankByLargestGap, DropToExactZero) {
  std::vector<double> s{1.0, 0.5, 0.0, 0.0};
  EXPECT_EQ(la::rank_by_largest_gap(s), 2u);
}

TEST(RankByLargestGap, EmptyAndAllZero) {
  EXPECT_EQ(la::rank_by_largest_gap({}), 0u);
  EXPECT_EQ(la::rank_by_largest_gap({0.0, 0.0}), 0u);
}

// --- property tests ---------------------------------------------------------

struct SvdCase {
  std::size_t rows;
  std::size_t cols;
};

class SvdProperty : public ::testing::TestWithParam<SvdCase> {};

TEST_P(SvdProperty, RealReconstruction) {
  const auto [m, n] = GetParam();
  la::Rng rng(500 + m * 31 + n);
  Mat a = la::random_matrix(m, n, rng);
  auto d = la::svd(a);
  EXPECT_TRUE(la::approx_equal(d.reconstruct(), a, 1e-10, 1e-10));
}

TEST_P(SvdProperty, ComplexReconstruction) {
  const auto [m, n] = GetParam();
  la::Rng rng(600 + m * 31 + n);
  CMat a = la::random_complex_matrix(m, n, rng);
  auto d = la::svd(a);
  EXPECT_TRUE(la::approx_equal(d.reconstruct(), a, 1e-10, 1e-10));
}

TEST_P(SvdProperty, FactorsAreOrthonormal) {
  const auto [m, n] = GetParam();
  la::Rng rng(700 + m * 31 + n);
  CMat a = la::random_complex_matrix(m, n, rng);
  auto d = la::svd(a);
  const std::size_t r = d.s.size();
  EXPECT_TRUE(la::approx_equal(d.u.adjoint() * d.u, CMat::identity(r), 1e-10,
                               1e-10));
  EXPECT_TRUE(la::approx_equal(d.v.adjoint() * d.v, CMat::identity(r), 1e-10,
                               1e-10));
}

TEST_P(SvdProperty, SingularValuesAreSortedAndNonNegative) {
  const auto [m, n] = GetParam();
  la::Rng rng(800 + m * 31 + n);
  Mat a = la::random_matrix(m, n, rng);
  auto s = la::singular_values(a);
  for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_GE(s[i], s[i + 1]);
  for (double x : s) EXPECT_GE(x, 0.0);
}

TEST_P(SvdProperty, LowRankConstructionIsDetected) {
  const auto [m, n] = GetParam();
  const std::size_t r = std::min({m, n, static_cast<std::size_t>(3)});
  if (r == 0) GTEST_SKIP();
  la::Rng rng(900 + m * 31 + n);
  Mat a = la::random_matrix(m, r, rng) * la::random_matrix(r, n, rng);
  auto s = la::singular_values(a);
  EXPECT_EQ(la::numerical_rank(s, 1e-9), r);
}

TEST_P(SvdProperty, FrobeniusNormEqualsSingularValueNorm) {
  const auto [m, n] = GetParam();
  la::Rng rng(1000 + m * 31 + n);
  CMat a = la::random_complex_matrix(m, n, rng);
  auto s = la::singular_values(a);
  EXPECT_NEAR(la::frobenius_norm(a), la::vector_norm(s),
              1e-10 * (1.0 + la::frobenius_norm(a)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdProperty,
    ::testing::Values(SvdCase{1, 1}, SvdCase{3, 3}, SvdCase{5, 2},
                      SvdCase{2, 5}, SvdCase{10, 10}, SvdCase{25, 8},
                      SvdCase{8, 25}, SvdCase{40, 40}));

// --- Golub–Kahan path, cross-validated against the Jacobi path --------------

class GolubKahanProperty : public ::testing::TestWithParam<SvdCase> {};

TEST_P(GolubKahanProperty, RealFactorsReconstructAndAreOrthonormal) {
  const auto [m, n] = GetParam();
  la::Rng rng(1100 + m * 31 + n);
  Mat a = la::random_matrix(m, n, rng);
  la::SvdOptions opts;
  opts.algorithm = la::SvdAlgorithm::GolubKahan;
  auto d = la::svd(a, opts);
  EXPECT_TRUE(la::approx_equal(d.reconstruct(), a, 1e-9, 1e-9));
  const std::size_t r = d.s.size();
  EXPECT_TRUE(la::approx_equal(d.u.transpose() * d.u, Mat::identity(r),
                               1e-9, 1e-9));
  EXPECT_TRUE(la::approx_equal(d.v.transpose() * d.v, Mat::identity(r),
                               1e-9, 1e-9));
}

TEST_P(GolubKahanProperty, ComplexFactorsReconstructAndAreOrthonormal) {
  const auto [m, n] = GetParam();
  la::Rng rng(1200 + m * 31 + n);
  CMat a = la::random_complex_matrix(m, n, rng);
  la::SvdOptions opts;
  opts.algorithm = la::SvdAlgorithm::GolubKahan;
  auto d = la::svd(a, opts);
  EXPECT_TRUE(la::approx_equal(d.reconstruct(), a, 1e-9, 1e-9));
  const std::size_t r = d.s.size();
  EXPECT_TRUE(la::approx_equal(d.u.adjoint() * d.u, CMat::identity(r), 1e-9,
                               1e-9));
  EXPECT_TRUE(la::approx_equal(d.v.adjoint() * d.v, CMat::identity(r), 1e-9,
                               1e-9));
}

TEST_P(GolubKahanProperty, SingularValuesMatchJacobi) {
  const auto [m, n] = GetParam();
  la::Rng rng(1300 + m * 31 + n);
  CMat a = la::random_complex_matrix(m, n, rng);
  la::SvdOptions gk;
  gk.algorithm = la::SvdAlgorithm::GolubKahan;
  la::SvdOptions jac;
  jac.algorithm = la::SvdAlgorithm::Jacobi;
  const auto s1 = la::singular_values(a, gk);
  const auto s2 = la::singular_values(a, jac);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_NEAR(s1[i], s2[i], 1e-10 * (1.0 + s2[0]));
  }
}

TEST_P(GolubKahanProperty, LowRankDetectedIdentically) {
  const auto [m, n] = GetParam();
  const std::size_t r = std::min({m, n, static_cast<std::size_t>(2)});
  if (r == 0) GTEST_SKIP();
  la::Rng rng(1400 + m * 31 + n);
  Mat a = la::random_matrix(m, r, rng) * la::random_matrix(r, n, rng);
  la::SvdOptions gk;
  gk.algorithm = la::SvdAlgorithm::GolubKahan;
  EXPECT_EQ(la::numerical_rank(la::singular_values(a, gk), 1e-9), r);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GolubKahanProperty,
    ::testing::Values(SvdCase{1, 1}, SvdCase{2, 2}, SvdCase{3, 3},
                      SvdCase{7, 4}, SvdCase{4, 7}, SvdCase{16, 16},
                      SvdCase{33, 20}, SvdCase{20, 33}, SvdCase{50, 50},
                      SvdCase{64, 48}));

TEST(GolubKahan, SingularValuesOnlySkipsFactors) {
  la::Rng rng(1500);
  Mat a = la::random_matrix(40, 40, rng);
  la::SvdOptions gk;
  gk.algorithm = la::SvdAlgorithm::GolubKahan;
  const auto s = la::singular_values(a, gk);
  EXPECT_EQ(s.size(), 40u);
  for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_GE(s[i], s[i + 1]);
}

TEST(GolubKahan, HandlesZeroColumnsAndRepeatedValues) {
  Mat a(6, 4);
  a(0, 0) = 2.0;
  a(1, 1) = 2.0;  // repeated singular value
  // column 2 and 3 zero
  la::SvdOptions gk;
  gk.algorithm = la::SvdAlgorithm::GolubKahan;
  auto d = la::svd(a, gk);
  EXPECT_NEAR(d.s[0], 2.0, 1e-12);
  EXPECT_NEAR(d.s[1], 2.0, 1e-12);
  EXPECT_NEAR(d.s[2], 0.0, 1e-12);
  EXPECT_TRUE(la::approx_equal(d.reconstruct(), a, 1e-10, 1e-10));
}

TEST(GolubKahan, GradedMatrixSmallSingularValuesAccurate) {
  // Diagonal with huge dynamic range: values must come back to relative
  // precision (this exercises the shift strategy, not just convergence).
  std::vector<double> diag{1e8, 1e4, 1.0, 1e-4, 1e-8};
  Mat a = Mat::diagonal(diag);
  la::SvdOptions gk;
  gk.algorithm = la::SvdAlgorithm::GolubKahan;
  auto s = la::singular_values(a, gk);
  ASSERT_EQ(s.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(s[i] / diag[i], 1.0, 1e-10);
  }
}

// --- one-sided factors -----------------------------------------------------

namespace {

// Left and Right must return the singular values and the requested factor
// bitwise as Both does, and the other factor with zero columns.
template <typename T>
void expect_one_sided_matches_both(const la::Matrix<T>& a,
                                   la::SvdAlgorithm algorithm) {
  la::SvdOptions opts;
  opts.algorithm = algorithm;
  const la::Svd<T> both = la::svd(a, opts);
  opts.vectors = la::SvdVectors::Left;
  const la::Svd<T> left = la::svd(a, opts);
  opts.vectors = la::SvdVectors::Right;
  const la::Svd<T> right = la::svd(a, opts);

  EXPECT_EQ(left.s, both.s);
  EXPECT_TRUE(left.u == both.u);
  EXPECT_EQ(left.v.rows(), a.cols());
  EXPECT_EQ(left.v.cols(), 0u);

  EXPECT_EQ(right.s, both.s);
  EXPECT_TRUE(right.v == both.v);
  EXPECT_EQ(right.u.rows(), a.rows());
  EXPECT_EQ(right.u.cols(), 0u);
}

struct OneSidedCase {
  std::size_t rows;
  std::size_t cols;
  la::SvdAlgorithm algorithm;
};

class SvdOneSided : public ::testing::TestWithParam<OneSidedCase> {};

}  // namespace

TEST_P(SvdOneSided, RealFactorIsBitwiseBoth) {
  const auto [m, n, algorithm] = GetParam();
  la::Rng rng(1600 + m * 31 + n);
  expect_one_sided_matches_both(la::random_matrix(m, n, rng), algorithm);
}

TEST_P(SvdOneSided, ComplexFactorIsBitwiseBoth) {
  const auto [m, n, algorithm] = GetParam();
  la::Rng rng(1700 + m * 31 + n);
  expect_one_sided_matches_both(la::random_complex_matrix(m, n, rng),
                                algorithm);
}

TEST_P(SvdOneSided, RankDeficientFactorIsBitwiseBoth) {
  const auto [m, n, algorithm] = GetParam();
  la::Rng rng(1800 + m * 31 + n);
  const std::size_t r = std::min(m, n) / 3;
  const Mat real = la::random_matrix(m, r, rng) * la::random_matrix(r, n, rng);
  expect_one_sided_matches_both(real, algorithm);
  const CMat left = la::random_complex_matrix(m, r, rng);
  const CMat right = la::random_complex_matrix(r, n, rng);
  expect_one_sided_matches_both(CMat(left * right), algorithm);
}

// Auto picks Jacobi up to 32 columns of the tall orientation and
// Golub–Kahan above; wide inputs go through their adjoint.
INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdOneSided,
    ::testing::Values(OneSidedCase{30, 18, la::SvdAlgorithm::Auto},
                      OneSidedCase{18, 30, la::SvdAlgorithm::Auto},
                      OneSidedCase{72, 40, la::SvdAlgorithm::Auto},
                      OneSidedCase{40, 72, la::SvdAlgorithm::Auto},
                      OneSidedCase{25, 12, la::SvdAlgorithm::Jacobi},
                      OneSidedCase{12, 25, la::SvdAlgorithm::Jacobi},
                      OneSidedCase{60, 45, la::SvdAlgorithm::GolubKahan},
                      OneSidedCase{45, 60, la::SvdAlgorithm::GolubKahan},
                      OneSidedCase{9, 9, la::SvdAlgorithm::GolubKahan}));

TEST(SvdVectors, EmptyMatrixKeepsShapes) {
  la::SvdOptions opts;
  opts.vectors = la::SvdVectors::Right;
  const auto d = la::svd(Mat(4, 0), opts);
  EXPECT_TRUE(d.s.empty());
  EXPECT_EQ(d.u.rows(), 4u);
  EXPECT_EQ(d.v.rows(), 0u);
}
