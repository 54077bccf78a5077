#include "linalg/norms.hpp"

#include <cmath>
#include <limits>

#include "linalg/simd/dispatch.hpp"
#include "linalg/svd.hpp"

namespace mfti::la {

namespace {

// Contiguous |.|^2 sums route through the dispatched sumsq kernel (which
// sums re^2 + im^2 directly — no intermediate sqrt, unlike the seed's
// abs-then-square).
template <typename T>
Real frobenius_impl(const Matrix<T>& a) {
  return std::sqrt(simd::kernels<T>().sumsq(a.size(), a.data()));
}

template <typename T>
Real one_norm_impl(const Matrix<T>& a) {
  Real best = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    Real s = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
      s += detail::abs_value(a(i, j));
    best = std::max(best, s);
  }
  return best;
}

template <typename T>
Real inf_norm_impl(const Matrix<T>& a) {
  Real best = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    Real s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j)
      s += detail::abs_value(a(i, j));
    best = std::max(best, s);
  }
  return best;
}

// sigma_max needs no high relative accuracy, so it comes from a Golub–Kahan
// SVD without vectors; Auto would run Jacobi sweeps on small matrices.
template <typename T>
Real two_norm_impl(const Matrix<T>& a) {
  if (a.empty()) return 0.0;
  SvdOptions opts;
  opts.algorithm = SvdAlgorithm::GolubKahan;
  const std::vector<Real> s = singular_values(a, opts);
  return s.empty() ? 0.0 : s.front();
}

// sigma_min must be accurate to high relative precision: keep Auto (Jacobi
// on small matrices).
template <typename T>
Real cond_impl(const Matrix<T>& a) {
  if (a.empty()) return 1.0;
  const std::vector<Real> s = singular_values(a);
  if (s.back() <= 0.0) return std::numeric_limits<Real>::infinity();
  return s.front() / s.back();
}

}  // namespace

Real frobenius_norm(const Mat& a) { return frobenius_impl(a); }
Real frobenius_norm(const CMat& a) { return frobenius_impl(a); }
Real one_norm(const Mat& a) { return one_norm_impl(a); }
Real one_norm(const CMat& a) { return one_norm_impl(a); }
Real inf_norm(const Mat& a) { return inf_norm_impl(a); }
Real inf_norm(const CMat& a) { return inf_norm_impl(a); }
Real two_norm(const Mat& a) { return two_norm_impl(a); }
Real two_norm(const CMat& a) { return two_norm_impl(a); }
Real condition_number(const Mat& a) { return cond_impl(a); }
Real condition_number(const CMat& a) { return cond_impl(a); }

Real vector_norm(const std::vector<Real>& v) {
  return std::sqrt(simd::kernels<Real>().sumsq(v.size(), v.data()));
}

Real vector_norm(const std::vector<Complex>& v) {
  return std::sqrt(simd::kernels<Complex>().sumsq(v.size(), v.data()));
}

}  // namespace mfti::la
