/// \file svd.hpp
/// \brief Singular value decomposition: Golub–Kahan bidiagonalization with
/// implicit-shift bidiagonal QR, and one-sided Jacobi rotations.
///
/// The SVD is the workhorse of the Loewner framework: the numerical rank of
/// `x0*L - sL` (Lemma 3.4 of the paper) determines the order of the
/// recovered model, and its singular vectors project the raw Loewner pencil
/// down to a minimal realization. `SvdAlgorithm::Auto` runs Golub–Kahan
/// (O(m n^2), what LAPACK's gesvd does) above 32 columns and one-sided
/// Jacobi at or below. Jacobi is simple, unconditionally convergent in
/// practice, and computes small singular values to high relative accuracy —
/// exactly what the "sharp drop" detection of Fig. 1 needs on small
/// matrices. Its sweeps follow a round-robin tournament over column pairs,
/// so the disjoint pairs of each round can rotate in parallel without
/// changing the result.
///
/// `SvdOptions::vectors` asks for one factor only (`Left` = U, `Right` =
/// V). The unused factor is then never accumulated or rotated; the
/// singular values and the factor returned are bitwise the same as with
/// `Both`, because neither algorithm's recurrence reads the vectors.

#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "parallel/execution.hpp"

namespace mfti::la {

/// Thin SVD `A = U diag(s) V^*` with `r = min(rows, cols)`:
/// `u` is rows x r, `s` holds r non-negative values in descending order,
/// `v` is cols x r. A factor left out by `SvdOptions::vectors` has zero
/// columns.
///
/// Columns of `u`/`v` associated with singular values that are exactly zero
/// are zero vectors (no arbitrary basis completion is invented); downstream
/// code only consumes the leading, numerically significant part.
template <typename T>
struct Svd {
  Matrix<T> u;
  std::vector<Real> s;
  Matrix<T> v;

  /// Reconstruct `U diag(s) V^*` (testing aid).
  Matrix<T> reconstruct() const;
};

/// SVD algorithm choice.
enum class SvdAlgorithm {
  /// Golub–Kahan bidiagonalization + shifted bidiagonal QR for larger
  /// matrices, one-sided Jacobi for small ones.
  Auto,
  /// One-sided Jacobi: simplest, high relative accuracy, O(n^3) per sweep.
  Jacobi,
  /// Householder bidiagonalization + implicit-shift QR on the bidiagonal —
  /// the standard fast dense SVD (what LAPACK's gesvd does).
  GolubKahan,
};

/// Which singular-vector factors `svd` returns.
enum class SvdVectors {
  Both,   ///< U and V.
  Left,   ///< U only; `v` comes back with zero columns.
  Right,  ///< V only; `u` comes back with zero columns.
};

/// Options for the SVD.
struct SvdOptions {
  SvdAlgorithm algorithm = SvdAlgorithm::Auto;
  /// Factors to compute. A wide input (rows < cols) is decomposed through
  /// its adjoint with Left and Right swapped, so the choice always names
  /// the factor of `a` itself. `singular_values` ignores this field.
  SvdVectors vectors = SvdVectors::Both;
  /// Jacobi: maximum number of full sweeps over all column pairs.
  int max_sweeps = 64;
  /// Jacobi: two columns count as orthogonal when
  /// `|g_i^* g_j| <= tol * ||g_i|| * ||g_j||`.
  Real tol = 1e-14;
  /// Golub–Kahan: fan the Householder panel updates and the U/V
  /// accumulation out over threads. Jacobi: execute the disjoint column
  /// pairs of each round-robin round concurrently. Per-column arithmetic
  /// order is unchanged in both paths, so the decomposition is bitwise
  /// identical to serial. (The bidiagonal QR iteration stays serial.)
  parallel::ExecutionPolicy exec;
};

/// Compute the thin SVD of `a`.
/// \throws ConvergenceError if the sweep limit is exceeded.
template <typename T>
Svd<T> svd(const Matrix<T>& a, const SvdOptions& opts = {});

/// Singular values only (descending).
template <typename T>
std::vector<Real> singular_values(const Matrix<T>& a,
                                  const SvdOptions& opts = {});

/// Numerical rank: number of singular values `> rel_tol * s_max`
/// (`s` must be descending, as produced by `svd`).
std::size_t numerical_rank(const std::vector<Real>& s, Real rel_tol = 1e-10);

/// Index of the largest *relative gap* `s[i] / s[i+1]` in a descending
/// singular-value sequence, i.e. the rank suggested by the sharpest drop.
/// Values below `floor_tol * s_max` are ignored as noise. Returns `s.size()`
/// when no drop larger than `min_gap` exists.
std::size_t rank_by_largest_gap(const std::vector<Real>& s,
                                Real min_gap = 1e3, Real floor_tol = 1e-14);

extern template struct Svd<Real>;
extern template struct Svd<Complex>;
extern template Svd<Real> svd(const Matrix<Real>&, const SvdOptions&);
extern template Svd<Complex> svd(const Matrix<Complex>&, const SvdOptions&);
extern template std::vector<Real> singular_values(const Matrix<Real>&,
                                                  const SvdOptions&);
extern template std::vector<Real> singular_values(const Matrix<Complex>&,
                                                  const SvdOptions&);

}  // namespace mfti::la
