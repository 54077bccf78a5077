/// \file pole_residue.hpp
/// \brief The common-pole (pole–residue) model
/// `H(s) = D + sum_q R_q / (s - p_q)`: the product of vector fitting and of
/// the modal decomposition of a descriptor model, with its one real block
/// realization.
///
/// The Loewner realizations returned by MFTI are projected pencils whose
/// state basis has no physical meaning; the pole-residue form is how one
/// inspects the identified dynamics (which resonances were captured, with
/// what coupling) and ports the model to other tools.

#pragma once

#include <cstddef>
#include <vector>

#include "statespace/descriptor.hpp"

namespace mfti::ss {

/// Rational matrix model with common poles:
/// `H(s) = D + sum_q R_q / (s - p_q)`.
/// The pole list is conjugate-closed: a complex pole's mate is listed too,
/// with the conjugate residue, so `residues.size() == poles.size()`. The
/// order of the list is free; `conjugate_blocks` finds the pairs.
struct PoleResidueModel {
  std::vector<Complex> poles;
  std::vector<CMat> residues;  ///< one p x m residue matrix per pole
  Mat d;                       ///< p x m real direct term

  std::size_t num_poles() const { return poles.size(); }
  std::size_t num_outputs() const { return d.rows(); }
  std::size_t num_inputs() const { return d.cols(); }

  /// Evaluate `H(s)` at one point.
  CMat evaluate(Complex s) const;

  /// Real block state-space realization with `E = I`, of order
  /// `num_poles() * num_inputs()`: one state per pole per input.
  /// Blocks follow `conjugate_blocks(poles)`. A real pole `p` is `p I_m`
  /// with `B = I_m`, `C = Re R`. A pair with +Im member `a = α + jβ` is
  /// `[α I_m, β I_m; -β I_m, α I_m]` with `B = [2 I_m; 0]` and
  /// `C = [Re R_a, Im R_a]`.
  /// \throws std::invalid_argument if the pole list is not
  /// conjugate-closed or a residue's dimensions differ from `d`'s.
  DescriptorSystem to_state_space() const;
};

/// One block of a conjugate-closed pole list: a real pole
/// (`lower == upper`) or a conjugate pair.
struct ConjugateBlock {
  std::size_t upper;  ///< the real pole, or the pair's member with Im > 0
  std::size_t lower;  ///< `upper` for a real pole, else the pair's mate
  bool is_pair() const { return lower != upper; }
};

/// The one real-pole test: `|Im p| <= 1e-8 |p|`, or `|p| <= 1e-12 scale`
/// (a pole at the origin, up to rounding), where `scale` is the largest
/// `|pole|` of the list `p` belongs to.
bool is_real_pole(Complex p, Real scale);

/// Walk a conjugate-closed pole list: one block per real pole or pair, in
/// the order of each block's first listed member. A complex pole pairs with
/// the unpaired pole nearest its conjugate, which must lie within
/// `1e-3 |p|` of it.
/// \throws std::invalid_argument if a complex pole has no such mate.
std::vector<ConjugateBlock> conjugate_blocks(const std::vector<Complex>& poles);

/// Options for the decomposition.
struct PoleResidueOptions {
  /// Iterations of inverse iteration per eigenvector.
  int eigenvector_iterations = 8;
  /// Where the direct term is read off: `s = d_term_factor * max|pole|` on
  /// the positive real axis (far from all dynamics).
  Real d_term_factor = 1e3;
};

/// Compute poles, residue matrices and the direct term of a descriptor
/// model via pencil eigentriplets:
/// `R_q = (C v_q)(w_q^* B) / (w_q^* E v_q)`. Poles that `is_real_pole`
/// calls real are returned with `Im p = 0`. `d` is the real part of the
/// far-field remainder `H - sum R/(s-p)` (the system is real, so its
/// imaginary part is rounding). `to_state_space()` rebuilds a real model,
/// up to state coordinates.
///
/// Accurate for simple (non-defective, well-separated) poles — which is
/// what physical macromodels have; clustered poles may mix.
/// \throws std::invalid_argument for order-0 systems.
PoleResidueModel pole_residue_decomposition(
    const DescriptorSystem& sys, const PoleResidueOptions& opts = {});

/// Modal truncation: keep only the modes whose peak frequency-response
/// contribution `||R_q||_2 / |Re(p_q)|` reaches `rel_tol` times the
/// largest, and rebuild a (smaller) real model. A conjugate pair is kept
/// or dropped as one, and `rel_tol = 0` keeps every mode. The D term
/// absorbs the static part of the decomposition.
///
/// The standard clean-up after a Loewner/VF fit: drops numerically spurious
/// weak modes without touching the dominant dynamics.
/// \throws std::invalid_argument for order-0 systems.
DescriptorSystem modal_truncation(const DescriptorSystem& sys,
                                  Real rel_tol = 1e-8,
                                  const PoleResidueOptions& opts = {});

}  // namespace mfti::ss
