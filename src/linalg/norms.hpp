/// \file norms.hpp
/// \brief Matrix and vector norms (Frobenius, 1, inf, spectral).
///
/// The paper's error metric (Section 5) is built on spectral norms:
/// `err_i = ||H(j 2 pi f_i) - S(f_i)||_2 / ||S(f_i)||_2`.

#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace mfti::la {

/// Frobenius norm.
Real frobenius_norm(const Mat& a);
Real frobenius_norm(const CMat& a);

/// Maximum absolute column sum.
Real one_norm(const Mat& a);
Real one_norm(const CMat& a);

/// Maximum absolute row sum.
Real inf_norm(const Mat& a);
Real inf_norm(const CMat& a);

/// Spectral norm (largest singular value, from a Golub–Kahan SVD that
/// computes no vectors).
Real two_norm(const Mat& a);
Real two_norm(const CMat& a);

/// Euclidean norm of a std::vector.
Real vector_norm(const std::vector<Real>& v);
Real vector_norm(const std::vector<Complex>& v);

/// Spectral condition number `s_max / s_min`; +inf when singular. Small
/// matrices go through Jacobi, which resolves `s_min` to high relative
/// accuracy.
Real condition_number(const Mat& a);
Real condition_number(const CMat& a);

}  // namespace mfti::la
