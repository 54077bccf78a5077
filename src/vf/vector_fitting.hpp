/// \file vector_fitting.hpp
/// \brief Baseline: matrix vector fitting (Gustavsen–Semlyen [4]) with
/// common poles across all entries — the "VF (10 iterations)" rows of the
/// paper's Table 1.
///
/// The implementation is the standard real-basis formulation: conjugate
/// pole pairs are represented by the real partial-fraction basis
/// `phi_1 = 1/(s-a) + 1/(s-conj a)`, `phi_2 = j/(s-a) - j/(s-conj a)`, so
/// every least-squares unknown is real and the fitted model is exactly
/// conjugate-symmetric. The sigma system is compressed entry-by-entry with
/// the shared numerator basis projected out once (fast VF); unstable
/// relocated poles are flipped into the left half plane.

#pragma once

#include <cstddef>
#include <vector>

#include "sampling/dataset.hpp"
#include "statespace/pole_residue.hpp"

namespace mfti::vf {

using la::CMat;
using la::Complex;
using la::Mat;
using la::Real;

/// Options for vector_fit.
struct VectorFittingOptions {
  std::size_t num_poles = 20;  ///< requested order n
  std::size_t iterations = 10; ///< sigma relocation sweeps
  /// Flip relocated poles with positive real part into the left half plane.
  bool enforce_stability = true;
  /// Starting poles: conjugate pairs with `|Re| = ratio * |Im|`, imaginary
  /// parts log-spaced over the sampled band.
  Real initial_real_ratio = 0.01;
  /// Relaxed VF (Gustavsen 2006): sigma's constant term is a free unknown
  /// with a non-triviality constraint instead of being fixed to 1 —
  /// improves relocation when the initial poles are poor. Off by default
  /// (the paper compares against classic VF [4]).
  bool relaxed = false;
};

/// Result of a vector-fitting run.
struct VectorFittingResult {
  /// Conjugate-closed; each pair is listed adjacently, +Im member first.
  ss::PoleResidueModel model;
  /// Number of poles in the final model (can differ from the request when
  /// degenerate complex pairs collapse to real poles).
  std::size_t order = 0;
  /// False when `2k <= n+1`: the sigma system is unidentifiable (more
  /// numerator unknowns than data equations per entry), the relocation
  /// sweeps are skipped and the initial poles are kept. This is the regime
  /// the paper's "VF n=280 on 100 samples" row operates in.
  bool sigma_identifiable = true;
  /// RMS absolute fit error over all entries and frequencies (final model).
  Real rms_fit_error = 0.0;
};

/// Fit a common-pole rational model to sampled data.
/// Compatibility layer: prefer `api::Fitter` with
/// `api::VectorFittingStrategy`.
/// \throws std::invalid_argument for empty data, zero poles or zero
/// iterations with no residue fit possible.
VectorFittingResult vector_fit(const sampling::SampleSet& data,
                               const VectorFittingOptions& opts = {});

}  // namespace mfti::vf
