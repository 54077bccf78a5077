#include "statespace/pole_residue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/eig.hpp"
#include "linalg/norms.hpp"
#include "statespace/response.hpp"

namespace mfti::ss {

namespace {

constexpr Real kImagTol = 1e-8;     // |Im p| <= kImagTol |p|: real
constexpr Real kOriginTol = 1e-12;  // |p| <= kOriginTol max|p|: real
constexpr Real kMateTol = 1e-3;     // mate b of a: |b - conj a| <= this |a|

}  // namespace

bool is_real_pole(Complex p, Real scale) {
  const Real mag = std::abs(p);
  return std::abs(p.imag()) <= kImagTol * mag || mag <= kOriginTol * scale;
}

std::vector<ConjugateBlock> conjugate_blocks(
    const std::vector<Complex>& poles) {
  const std::size_t n = poles.size();
  Real scale = 0.0;
  for (const Complex& p : poles) scale = std::max(scale, std::abs(p));

  // Pair every complex pole first, so a mate that rounding pushed under the
  // real-pole test is still found wherever it is listed.
  std::vector<std::size_t> mate(n, n);  // n: unpaired
  for (std::size_t q = 0; q < n; ++q) {
    if (mate[q] != n || is_real_pole(poles[q], scale)) continue;
    const Complex target = std::conj(poles[q]);
    std::size_t best = n;
    Real best_dist = std::numeric_limits<Real>::infinity();
    for (std::size_t r = 0; r < n; ++r) {
      if (r == q || mate[r] != n) continue;
      const Real dist = std::norm(poles[r] - target);
      if (dist < best_dist) {
        best_dist = dist;
        best = r;
      }
    }
    if (best == n ||
        std::abs(poles[best] - target) > kMateTol * std::abs(poles[q])) {
      throw std::invalid_argument(
          "conjugate_blocks: pole list is not conjugate-closed");
    }
    mate[q] = best;
    mate[best] = q;
  }

  std::vector<ConjugateBlock> blocks;
  for (std::size_t q = 0; q < n; ++q) {
    const std::size_t r = mate[q];
    if (r == n) {
      blocks.push_back({q, q});
    } else if (q < r) {
      blocks.push_back(poles[q].imag() >= poles[r].imag()
                           ? ConjugateBlock{q, r}
                           : ConjugateBlock{r, q});
    }
  }
  return blocks;
}

CMat PoleResidueModel::evaluate(Complex s) const {
  CMat h = la::to_complex(d);
  for (std::size_t q = 0; q < poles.size(); ++q) {
    const Complex g = 1.0 / (s - poles[q]);
    for (std::size_t i = 0; i < h.rows(); ++i)
      for (std::size_t j = 0; j < h.cols(); ++j)
        h(i, j) += residues[q](i, j) * g;
  }
  return h;
}

DescriptorSystem PoleResidueModel::to_state_space() const {
  const std::size_t p = num_outputs();
  const std::size_t m = num_inputs();
  if (residues.size() != poles.size()) {
    throw std::invalid_argument("to_state_space: pole/residue count mismatch");
  }
  for (const CMat& r : residues) {
    if (r.rows() != p || r.cols() != m) {
      throw std::invalid_argument(
          "to_state_space: residue dimensions must match D");
    }
  }
  const std::size_t n = poles.size() * m;
  Mat a(n, n);
  Mat b(n, m);
  Mat c(p, n);
  std::size_t off = 0;
  for (const ConjugateBlock& blk : conjugate_blocks(poles)) {
    const Complex pole = poles[blk.upper];
    const CMat& r = residues[blk.upper];
    if (!blk.is_pair()) {
      for (std::size_t q = 0; q < m; ++q) {
        a(off + q, off + q) = pole.real();
        b(off + q, q) = 1.0;
        for (std::size_t i = 0; i < p; ++i) c(i, off + q) = r(i, q).real();
      }
      off += m;
      continue;
    }
    const Real alpha = pole.real();
    const Real beta = pole.imag();
    for (std::size_t q = 0; q < m; ++q) {
      a(off + q, off + q) = alpha;
      a(off + q, off + m + q) = beta;
      a(off + m + q, off + q) = -beta;
      a(off + m + q, off + m + q) = alpha;
      b(off + q, q) = 2.0;
      for (std::size_t i = 0; i < p; ++i) {
        c(i, off + q) = r(i, q).real();
        c(i, off + m + q) = r(i, q).imag();
      }
    }
    off += 2 * m;
  }
  DescriptorSystem sys{Mat::identity(n), std::move(a), std::move(b),
                       std::move(c), d};
  sys.validate();
  return sys;
}

PoleResidueModel pole_residue_decomposition(const DescriptorSystem& sys,
                                            const PoleResidueOptions& opts) {
  sys.validate();
  if (sys.order() == 0) {
    throw std::invalid_argument(
        "pole_residue_decomposition: order-0 system");
  }
  const CMat a = la::to_complex(sys.a);
  const CMat e = la::to_complex(sys.e);
  const CMat b = la::to_complex(sys.b);
  const CMat c = la::to_complex(sys.c);

  PoleResidueModel out;
  out.poles = la::generalized_eigenvalues(sys.a, sys.e);

  Real pole_scale = 0.0;
  for (const Complex& p : out.poles)
    pole_scale = std::max(pole_scale, std::abs(p));
  if (pole_scale == 0.0) pole_scale = 1.0;

  out.residues.reserve(out.poles.size());
  for (const Complex& p : out.poles) {
    const CMat v = la::pencil_eigenvector(a, e, p,
                                          opts.eigenvector_iterations);
    const CMat w = la::pencil_left_eigenvector(a, e, p,
                                               opts.eigenvector_iterations);
    // R = (C v)(w^* B) / (w^* E v)
    const CMat cv = c * v;                    // p x 1
    const CMat wb = w.adjoint() * b;          // 1 x m
    const CMat wev = w.adjoint() * (e * v);   // 1 x 1
    const Complex denom = wev(0, 0);
    if (std::abs(denom) < 1e-300) {
      throw la::ConvergenceError(
          "pole_residue_decomposition: degenerate eigentriplet (defective "
          "or clustered pole?)");
    }
    CMat r = cv * wb;
    r /= denom;
    out.residues.push_back(std::move(r));
  }
  // A real pole can come back a rounding error off the axis. Put it on the
  // axis, so that every sub-list (modal_truncation's) still reads it as
  // real: the origin test depends on the list's largest pole.
  for (Complex& p : out.poles) {
    if (is_real_pole(p, pole_scale)) p = Complex(p.real(), 0.0);
  }

  // Direct term: evaluate far from all dynamics and subtract the modal sum
  // (what `evaluate` returns while d is zero).
  const Complex s_far(opts.d_term_factor * pole_scale, 0.0);
  out.d = Mat(sys.num_outputs(), sys.num_inputs());
  out.d = la::real_part(transfer_function(sys, s_far) - out.evaluate(s_far));
  return out;
}

DescriptorSystem modal_truncation(const DescriptorSystem& sys, Real rel_tol,
                                  const PoleResidueOptions& opts) {
  const PoleResidueModel full = pole_residue_decomposition(sys, opts);
  const std::vector<ConjugateBlock> blocks = conjugate_blocks(full.poles);
  // Peak contribution of a mode near its resonance: ||R|| / |Re p|.
  std::vector<Real> weight(blocks.size());
  Real w_max = 0.0;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const std::size_t q = blocks[k].upper;
    const Real damp = std::max(std::abs(full.poles[q].real()), 1e-300);
    weight[k] = la::two_norm(full.residues[q]) / damp;
    w_max = std::max(w_max, weight[k]);
  }
  // An integrator (Re p = 0) weighs infinity, and 0 * inf is NaN: test
  // rel_tol itself so that 0 keeps every mode.
  const Real cut = rel_tol > 0.0 ? rel_tol * w_max : 0.0;
  PoleResidueModel kept{{}, {}, full.d};
  const auto keep = [&](std::size_t q) {
    kept.poles.push_back(full.poles[q]);
    kept.residues.push_back(full.residues[q]);
  };
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    if (weight[k] < cut) continue;
    keep(blocks[k].upper);
    if (blocks[k].is_pair()) keep(blocks[k].lower);
  }
  return kept.to_state_space();
}

}  // namespace mfti::ss
