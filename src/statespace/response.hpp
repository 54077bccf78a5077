/// \file response.hpp
/// \brief Frequency-domain evaluation of descriptor systems: transfer
/// function `H(s) = C (sE - A)^{-1} B + D`, frequency sweeps, poles and
/// stability.
///
/// Sweeps are the second hot path of the MFTI pipeline (every error metric
/// and every Bode/Table reproduction evaluates hundreds of frequency
/// points), and per-point evaluation is the serving hot path.
/// `BatchEvaluator` reduces the pencil once to Hessenberg–triangular form
/// and then costs O(n^2 m) per point instead of a dense O(n^3) LU;
/// independent frequency points fan out across threads under a parallel
/// `ExecutionPolicy` with per-point results identical to the serial sweep.
/// `transfer_function` stays the one-shot dense-LU reference the evaluator
/// is checked against.

#pragma once

#include <vector>

#include "parallel/execution.hpp"
#include "statespace/descriptor.hpp"

namespace mfti::ss {

/// Evaluate `H(s)` at one complex frequency point by a dense LU of
/// `(sE - A)` — the reference `BatchEvaluator` is tested against.
/// \throws la::SingularMatrixError when `s` is (numerically) a pole.
CMat transfer_function(const DescriptorSystem& sys, Complex s);
CMat transfer_function(const ComplexDescriptorSystem& sys, Complex s);

/// Reusable frequency-response evaluator over a Hessenberg–triangular form
/// of the pencil.
///
/// Construction reduces `(E, A)` once with orthogonal transforms (unitary
/// for a complex system) `Q` and `Z`: `Q^* A Z = H` is upper Hessenberg,
/// `Q^* E Z = T` upper triangular, and `B~ = Q^* B`, `C~ = C Z`. This is
/// the direct first stage of QZ: it needs no inverse of `E`, so a singular
/// `E` (infinite eigenvalues, the usual case for Loewner realizations)
/// needs no special handling. Each point `s` then solves the Hessenberg
/// system `(sT - H) X = B~` by Gaussian elimination with adjacent-row
/// pivoting and returns `C~ X + D`: O(n^2 m) per point.
class BatchEvaluator {
 public:
  /// O(n^3) once. \throws std::invalid_argument on inconsistent system
  /// dimensions.
  explicit BatchEvaluator(const DescriptorSystem& sys);
  explicit BatchEvaluator(const ComplexDescriptorSystem& sys);

  std::size_t order() const { return h_.rows(); }
  std::size_t num_inputs() const { return b_.cols(); }
  std::size_t num_outputs() const { return c_.rows(); }

  /// `H(s)` at one point. \throws la::SingularMatrixError when a pivot of
  /// `(sT - H)` is exactly zero (`s` is a pole).
  CMat evaluate(Complex s) const;

  /// `H(s)` at every point, parallel over points under `exec`.
  std::vector<CMat> evaluate(const std::vector<Complex>& points,
                             const parallel::ExecutionPolicy& exec = {}) const;

  /// `H(j 2 pi f)` for every frequency (Hz), parallel over points.
  std::vector<CMat> sweep(const std::vector<Real>& freqs_hz,
                          const parallel::ExecutionPolicy& exec = {}) const;

 private:
  CMat h_;  ///< Q^* A Z, upper Hessenberg
  CMat t_;  ///< Q^* E Z, upper triangular
  CMat b_;  ///< Q^* B
  CMat c_;  ///< C Z
  CMat d_;
};

/// Evaluate `H(j 2 pi f)` for every frequency (Hz) in `freqs` through a
/// `BatchEvaluator` of `sys`.
std::vector<CMat> frequency_response(
    const DescriptorSystem& sys, const std::vector<Real>& freqs_hz,
    const parallel::ExecutionPolicy& exec = {});
std::vector<CMat> frequency_response(
    const ComplexDescriptorSystem& sys, const std::vector<Real>& freqs_hz,
    const parallel::ExecutionPolicy& exec = {});

/// Finite poles of the pencil `(A, E)`.
std::vector<Complex> poles(const DescriptorSystem& sys);

/// True when every finite pole has a strictly negative real part
/// (within `margin` of the imaginary axis counts as unstable).
bool is_stable(const DescriptorSystem& sys, Real margin = 0.0);

/// Magnitude of entry (`out`, `in`) of `H(j 2 pi f)` over a frequency sweep
/// — the quantity plotted in the paper's Fig. 2 Bode diagram.
std::vector<Real> bode_magnitude(const DescriptorSystem& sys,
                                 const std::vector<Real>& freqs_hz,
                                 std::size_t out = 0, std::size_t in = 0,
                                 const parallel::ExecutionPolicy& exec = {});

}  // namespace mfti::ss
