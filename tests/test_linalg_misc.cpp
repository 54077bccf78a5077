// Tests for norms, least-squares solvers and random matrix helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "linalg/lstsq.hpp"
#include "linalg/norms.hpp"
#include "linalg/random.hpp"
#include "linalg/svd.hpp"

namespace la = mfti::la;
using la::CMat;
using la::Complex;
using la::Mat;

TEST(Norms, HandComputedValues) {
  Mat a{{3, -4}, {0, 0}};
  EXPECT_NEAR(la::frobenius_norm(a), 5.0, 1e-12);
  EXPECT_NEAR(la::one_norm(a), 4.0, 1e-12);
  EXPECT_NEAR(la::inf_norm(a), 7.0, 1e-12);
}

TEST(Norms, ComplexFrobenius) {
  CMat a{{Complex(3, 4)}};
  EXPECT_NEAR(la::frobenius_norm(a), 5.0, 1e-12);
  EXPECT_NEAR(la::two_norm(a), 5.0, 1e-12);
}

TEST(Norms, TwoNormBoundsFrobenius) {
  la::Rng rng(21);
  Mat a = la::random_matrix(6, 4, rng);
  const double two = la::two_norm(a);
  const double fro = la::frobenius_norm(a);
  EXPECT_LE(two, fro + 1e-12);
  EXPECT_GE(two * std::sqrt(4.0), fro - 1e-12);  // ||A||_F <= sqrt(r)||A||_2
}

TEST(Norms, VectorNorms) {
  EXPECT_NEAR(la::vector_norm(std::vector<double>{3.0, 4.0}), 5.0, 1e-12);
  EXPECT_NEAR(la::vector_norm(std::vector<Complex>{Complex(0, 3),
                                                   Complex(4, 0)}),
              5.0, 1e-12);
}

TEST(Norms, ConditionNumber) {
  EXPECT_NEAR(la::condition_number(Mat::identity(3)), 1.0, 1e-12);
  Mat s = Mat::diagonal({10.0, 1.0});
  EXPECT_NEAR(la::condition_number(s), 10.0, 1e-10);
  Mat sing{{1, 1}, {1, 1}};
  EXPECT_TRUE(std::isinf(la::condition_number(sing)));
}

TEST(Lstsq, ExactlyDeterminedMatchesSolve) {
  Mat a{{2, 1}, {1, 3}};
  Mat b{{3}, {5}};
  Mat x = la::lstsq(a, b);
  EXPECT_NEAR(x(0, 0), 0.8, 1e-12);
  EXPECT_NEAR(x(1, 0), 1.4, 1e-12);
}

TEST(Lstsq, OverdeterminedConsistentSystem) {
  // b lies exactly in the range of a.
  la::Rng rng(22);
  Mat a = la::random_matrix(10, 4, rng);
  Mat xtrue = la::random_matrix(4, 2, rng);
  Mat b = a * xtrue;
  Mat x = la::lstsq(a, b);
  EXPECT_TRUE(la::approx_equal(x, xtrue, 1e-9, 1e-9));
}

TEST(Lstsq, ComplexOverdetermined) {
  la::Rng rng(23);
  CMat a = la::random_complex_matrix(12, 5, rng);
  CMat xtrue = la::random_complex_matrix(5, 1, rng);
  CMat b = a * xtrue;
  EXPECT_TRUE(la::approx_equal(la::lstsq(a, b), xtrue, 1e-9, 1e-9));
}

TEST(Lstsq, RowMismatchThrows) {
  EXPECT_THROW(la::lstsq(Mat(3, 2), Mat(4, 1)), std::invalid_argument);
  EXPECT_THROW(la::lstsq_svd(Mat(3, 2), Mat(4, 1)), std::invalid_argument);
}

TEST(LstsqSvd, MatchesQrOnWellConditioned) {
  la::Rng rng(24);
  Mat a = la::random_matrix(9, 3, rng);
  Mat b = la::random_matrix(9, 1, rng);
  EXPECT_TRUE(la::approx_equal(la::lstsq(a, b), la::lstsq_svd(a, b), 1e-8,
                               1e-8));
}

TEST(LstsqSvd, RankDeficientGivesMinimumNormSolution) {
  // Columns 1 and 2 identical: QR-based solve throws, SVD solve returns the
  // minimum-norm solution which splits the coefficient evenly.
  Mat a{{1, 1}, {2, 2}, {3, 3}};
  Mat b{{2}, {4}, {6}};
  EXPECT_THROW(la::lstsq(a, b), la::SingularMatrixError);
  Mat x = la::lstsq_svd(a, b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-10);
  EXPECT_NEAR(x(1, 0), 1.0, 1e-10);
}

TEST(LstsqSvd, WideSystemMinimumNorm) {
  // x = A^+ b for wide A: the solution with no component in the null space.
  Mat a{{1, 0, 1}};
  Mat b{{2}};
  Mat x = la::lstsq_svd(a, b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-10);
  EXPECT_NEAR(x(1, 0), 0.0, 1e-10);
  EXPECT_NEAR(x(2, 0), 1.0, 1e-10);
}

TEST(Random, ReproducibleWithSameSeed) {
  la::Rng a(42), b(42);
  Mat ma = la::random_matrix(3, 3, a);
  Mat mb = la::random_matrix(3, 3, b);
  EXPECT_TRUE(ma == mb);
}

TEST(Random, DifferentSeedsDiffer) {
  la::Rng a(1), b(2);
  EXPECT_FALSE(la::random_matrix(3, 3, a) == la::random_matrix(3, 3, b));
}

TEST(Random, ComplexEntriesHaveUnitVarianceApproximately) {
  la::Rng rng(77);
  CMat m = la::random_complex_matrix(100, 100, rng);
  double mean2 = 0.0;
  for (std::size_t i = 0; i < 100; ++i)
    for (std::size_t j = 0; j < 100; ++j) mean2 += std::norm(m(i, j));
  mean2 /= 1e4;
  EXPECT_NEAR(mean2, 1.0, 0.05);
}

TEST(Random, OrthonormalColumns) {
  la::Rng rng(78);
  Mat q = la::random_orthonormal(10, 4, rng);
  EXPECT_TRUE(la::approx_equal(q.transpose() * q, Mat::identity(4), 1e-10,
                               1e-10));
}

// two_norm reads sigma_max off a Golub–Kahan SVD without vectors; the
// Jacobi SVD, accurate to high relative precision, is the reference.
namespace {

template <typename T>
double jacobi_sigma_max(const la::Matrix<T>& a) {
  la::SvdOptions opts;
  opts.algorithm = la::SvdAlgorithm::Jacobi;
  return la::singular_values(a, opts).front();
}

}  // namespace

TEST(Norms, TwoNormMatchesJacobiSigmaMax) {
  la::Rng rng(31);
  const std::vector<Mat> reals{
      Mat{{-2.5}},
      la::random_matrix(1, 9, rng),
      la::random_matrix(9, 1, rng),
      la::random_matrix(40, 30, rng),
      la::random_matrix(12, 1, rng) * la::random_matrix(1, 7, rng),  // rank 1
  };
  for (const Mat& a : reals) {
    SCOPED_TRACE(std::to_string(a.rows()) + "x" + std::to_string(a.cols()));
    const double ref = jacobi_sigma_max(a);
    EXPECT_NEAR(la::two_norm(a), ref, 1e-13 * ref);
  }
  const std::vector<CMat> complexes{
      CMat{{Complex(0.3, -1.2)}},
      la::random_complex_matrix(1, 6, rng),
      la::random_complex_matrix(6, 1, rng),
      la::random_complex_matrix(14, 14, rng),
      la::random_complex_matrix(14, 1, rng) *
          la::random_complex_matrix(1, 14, rng),  // rank 1
  };
  for (const CMat& a : complexes) {
    SCOPED_TRACE(std::to_string(a.rows()) + "x" + std::to_string(a.cols()));
    const double ref = jacobi_sigma_max(a);
    EXPECT_NEAR(la::two_norm(a), ref, 1e-13 * ref);
  }
}

TEST(Norms, TwoNormOfZeroMatrixIsZero) {
  EXPECT_EQ(la::two_norm(Mat(5, 3)), 0.0);
  EXPECT_EQ(la::two_norm(CMat(14, 14)), 0.0);
  EXPECT_EQ(la::two_norm(Mat()), 0.0);
}
