#include "vf/vector_fitting.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "linalg/eig.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/qr.hpp"

namespace mfti::vf {

namespace {

// Partial-fraction basis in the *real-coefficient* convention: column q
// for a real pole is 1/(s-a); a conjugate pair puts
// phi1 = 1/(s-a) + 1/(s-conj a) in its +Im member's column and
// phi2 = j/(s-a) - j/(s-conj a) in its mate's.
CMat complex_basis(const std::vector<Complex>& poles,
                   const std::vector<ss::ConjugateBlock>& blocks,
                   const std::vector<Complex>& s_points) {
  CMat phi(s_points.size(), poles.size());
  for (std::size_t row = 0; row < s_points.size(); ++row) {
    const Complex s = s_points[row];
    for (const ss::ConjugateBlock& b : blocks) {
      const Complex f1 = 1.0 / (s - poles[b.upper]);
      if (!b.is_pair()) {
        phi(row, b.upper) = f1;
        continue;
      }
      const Complex f2 = 1.0 / (s - std::conj(poles[b.upper]));
      phi(row, b.upper) = f1 + f2;
      phi(row, b.lower) = Complex(0.0, 1.0) * (f1 - f2);
    }
  }
  return phi;
}

// Residue matrices from real coefficients of the complex_basis columns:
// entry (i, j) reads column i * m + j of `coeffs`, and a pair's residue at
// its +Im member is (phi1 coefficient) + j (phi2 coefficient).
std::vector<CMat> unpack_residues(std::size_t num_poles,
                                  const std::vector<ss::ConjugateBlock>& blocks,
                                  const Mat& coeffs, std::size_t p,
                                  std::size_t m) {
  std::vector<CMat> residues(num_poles, CMat(p, m));
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t col = i * m + j;
      for (const ss::ConjugateBlock& b : blocks) {
        if (!b.is_pair()) {
          residues[b.upper](i, j) = coeffs(b.upper, col);
          continue;
        }
        const Complex r(coeffs(b.upper, col), coeffs(b.lower, col));
        residues[b.upper](i, j) = r;
        residues[b.lower](i, j) = std::conj(r);
      }
    }
  }
  return residues;
}

// Stack Re over Im: a k x n complex matrix becomes 2k x n real.
Mat realify(const CMat& a) {
  Mat out(2 * a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      out(2 * i, j) = a(i, j).real();
      out(2 * i + 1, j) = a(i, j).imag();
    }
  }
  return out;
}

// Turn raw relocated eigenvalues into a clean conjugate-closed, stable,
// deterministic pole list.
std::vector<Complex> sanitize_poles(std::vector<Complex> raw, bool flip) {
  Real scale = 0.0;
  for (const Complex& e : raw) scale = std::max(scale, std::abs(e));
  std::vector<Complex> blocks;  // real poles and +Im pair representatives
  std::vector<bool> pair_flag;
  std::vector<Complex> pending = std::move(raw);
  while (!pending.empty()) {
    Complex e = pending.back();
    pending.pop_back();
    if (ss::is_real_pole(e, scale)) {
      blocks.push_back(Complex(e.real(), 0.0));
      pair_flag.push_back(false);
      continue;
    }
    // Find the closest conjugate mate.
    std::size_t best = pending.size();
    Real best_dist = std::numeric_limits<Real>::infinity();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const Real dist = std::abs(pending[i] - std::conj(e));
      if (dist < best_dist) {
        best_dist = dist;
        best = i;
      }
    }
    if (best < pending.size() &&
        best_dist <= 1e-3 * (std::abs(e) + 1e-300)) {
      const Complex mate = pending[best];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
      const Real alpha = 0.5 * (e.real() + mate.real());
      const Real beta = 0.5 * (std::abs(e.imag()) + std::abs(mate.imag()));
      blocks.push_back(Complex(alpha, beta));
      pair_flag.push_back(true);
    } else {
      // No mate (numerically degenerate): demote to a real pole.
      blocks.push_back(Complex(e.real(), 0.0));
      pair_flag.push_back(false);
    }
  }
  // Stability flip and zero-guard.
  for (Complex& p : blocks) {
    Real re = p.real();
    if (flip && re > 0.0) re = -re;
    if (re == 0.0) re = -1e-6 * (std::abs(p.imag()) + 1.0);
    p = Complex(re, p.imag());
  }
  // Deterministic order: by |Im| then Re.
  std::vector<std::size_t> order(blocks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const Real ax = std::abs(blocks[x].imag());
    const Real ay = std::abs(blocks[y].imag());
    if (ax != ay) return ax < ay;
    return blocks[x].real() < blocks[y].real();
  });
  std::vector<Complex> out;
  for (std::size_t i : order) {
    if (pair_flag[i]) {
      out.push_back(blocks[i]);
      out.push_back(std::conj(blocks[i]));
    } else {
      out.push_back(blocks[i]);
    }
  }
  return out;
}

std::vector<Complex> initial_poles(const std::vector<Real>& freqs,
                                   std::size_t n, Real real_ratio) {
  const Real f_lo = std::max(freqs.front(), 1e-3);
  const Real f_hi = std::max(freqs.back(), f_lo * 10.0);
  const std::size_t pairs = n / 2;
  std::vector<Complex> poles;
  poles.reserve(n);
  const Real llo = std::log(2.0 * std::numbers::pi * f_lo);
  const Real lhi = std::log(2.0 * std::numbers::pi * f_hi);
  for (std::size_t i = 0; i < pairs; ++i) {
    const Real frac = pairs == 1 ? 0.5
                                 : static_cast<Real>(i) /
                                       static_cast<Real>(pairs - 1);
    const Real beta = std::exp(llo + frac * (lhi - llo));
    poles.push_back(Complex(-real_ratio * beta, beta));
    poles.push_back(Complex(-real_ratio * beta, -beta));
  }
  if (n % 2 == 1) {
    poles.push_back(Complex(-std::exp(0.5 * (llo + lhi)), 0.0));
  }
  return poles;
}

}  // namespace

VectorFittingResult vector_fit(const sampling::SampleSet& data,
                               const VectorFittingOptions& opts) {
  if (data.size() < 2) {
    throw std::invalid_argument("vector_fit: need at least 2 samples");
  }
  if (opts.num_poles == 0) {
    throw std::invalid_argument("vector_fit: need at least one pole");
  }
  const std::size_t k = data.size();
  const std::size_t p = data.num_outputs();
  const std::size_t m = data.num_inputs();
  const std::size_t n = opts.num_poles;
  const std::size_t entries = p * m;

  std::vector<Complex> s_points;
  s_points.reserve(k);
  for (const auto& smp : data) {
    s_points.push_back(Complex(0.0, 2.0 * std::numbers::pi * smp.f_hz));
  }

  std::vector<Complex> poles =
      initial_poles(data.frequencies(), n, opts.initial_real_ratio);

  VectorFittingResult res;
  res.sigma_identifiable = (2 * k > n + 1);

  if (res.sigma_identifiable) {
    const std::size_t rows2k = 2 * k;
    const std::size_t comp_dim = rows2k - (n + 1);  // > 0: identifiable
    // Sigma unknowns: n residue coefficients, plus the free constant dtilde
    // in relaxed mode (sigma = dtilde + sum c~ phi instead of 1 + ...).
    const std::size_t nc = opts.relaxed ? n + 1 : n;
    for (std::size_t iter = 0; iter < opts.iterations; ++iter) {
      const std::vector<ss::ConjugateBlock> blocks =
          ss::conjugate_blocks(poles);
      const CMat phi_c = complex_basis(poles, blocks, s_points);
      // Shared numerator basis [phi, 1]; the sigma unknowns live in the
      // orthogonal complement of its column span (fast-VF compression:
      // eliminating the per-entry numerators exactly).
      CMat a1_c(k, n + 1);
      a1_c.set_block(0, 0, phi_c);
      for (std::size_t r = 0; r < k; ++r) a1_c(r, n) = 1.0;
      const Mat a1 = realify(a1_c);
      la::QrDecomposition<Real> q1(a1);
      const Mat qfull = q1.q_full();
      Mat q2t(comp_dim, rows2k);  // complement basis, transposed
      for (std::size_t i = 0; i < comp_dim; ++i)
        for (std::size_t j = 0; j < rows2k; ++j)
          q2t(i, j) = qfull(j, n + 1 + i);

      // One wide matrix holding every entry's [-diag(y) [phi, 1?] | rhs]
      // block so the projection is a single matmul. Non-relaxed rhs is y
      // (from the fixed "1" in sigma); relaxed rhs is 0.
      Mat z(rows2k, entries * (nc + 1));
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          const std::size_t c0 = (i * m + j) * (nc + 1);
          for (std::size_t r = 0; r < k; ++r) {
            const Complex y = data[r].s(i, j);
            for (std::size_t q = 0; q < n; ++q) {
              const Complex v = -y * phi_c(r, q);
              z(2 * r, c0 + q) = v.real();
              z(2 * r + 1, c0 + q) = v.imag();
            }
            if (opts.relaxed) {
              z(2 * r, c0 + n) = -y.real();
              z(2 * r + 1, c0 + n) = -y.imag();
              // rhs column (c0 + nc) stays zero
            } else {
              z(2 * r, c0 + n) = y.real();
              z(2 * r + 1, c0 + n) = y.imag();
            }
          }
        }
      }
      const Mat projected = q2t * z;  // comp_dim x entries*(nc+1)

      // Re-stack per entry (+1 constraint row in relaxed mode).
      const std::size_t extra = opts.relaxed ? 1 : 0;
      Mat stacked(entries * comp_dim + extra, nc);
      Mat rhs(entries * comp_dim + extra, 1);
      for (std::size_t e = 0; e < entries; ++e) {
        const std::size_t c0 = e * (nc + 1);
        for (std::size_t r = 0; r < comp_dim; ++r) {
          for (std::size_t q = 0; q < nc; ++q)
            stacked(e * comp_dim + r, q) = projected(r, c0 + q);
          rhs(e * comp_dim + r, 0) = projected(r, c0 + nc);
        }
      }
      if (opts.relaxed) {
        // Non-triviality constraint: sum_k Re(sigma(s_k)) = k, weighted by
        // the mean |S| so the row is commensurate with the data equations.
        Real mean_abs = 0.0;
        for (const auto& smp : data)
          for (std::size_t i = 0; i < p; ++i)
            for (std::size_t j = 0; j < m; ++j)
              mean_abs += std::abs(smp.s(i, j));
        mean_abs /= static_cast<Real>(k * entries);
        const Real w = std::max(mean_abs, 1e-12);
        const std::size_t row = entries * comp_dim;
        for (std::size_t q = 0; q < n; ++q) {
          Real acc = 0.0;
          for (std::size_t r = 0; r < k; ++r) acc += phi_c(r, q).real();
          stacked(row, q) = w * acc;
        }
        stacked(row, n) = w * static_cast<Real>(k);
        rhs(row, 0) = w * static_cast<Real>(k);
      }

      // The projected system is often (near-)rank-deficient; compress the
      // tall stack to its small R factor first, then solve with the
      // rank-safe SVD — same least-squares solution, tiny SVD.
      la::QrDecomposition<Real> sqr(la::hstack(stacked, rhs));
      const Mat rfac = sqr.r_thin();  // (nc+1) x (nc+1)
      const Mat r1 = rfac.block(0, 0, std::min<std::size_t>(rfac.rows(),
                                                            nc + 1), nc);
      const Mat rho = rfac.block(0, nc, r1.rows(), 1);
      const Mat ctilde = la::lstsq_svd(r1, rho, 1e-10);

      // Relocate: the new poles are the zeros of
      // sigma = dtilde + ctilde^T phi, the eigenvalues of A - B C / dtilde
      // of sigma's realization; dtilde = 1 when non-relaxed.
      Real dtilde = 1.0;
      if (opts.relaxed) {
        dtilde = ctilde(n, 0);
        // Guard against sigma collapsing to ~0 (Gustavsen's clamp).
        const Real floor = 1e-8;
        if (std::abs(dtilde) < floor) {
          dtilde = dtilde >= 0.0 ? floor : -floor;
        }
      }
      const ss::PoleResidueModel sigma{
          poles, unpack_residues(n, blocks, ctilde, 1, 1), Mat{{dtilde}}};
      const ss::DescriptorSystem sig = sigma.to_state_space();
      Mat relocated = sig.a;
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t cdx = 0; cdx < n; ++cdx)
          relocated(r, cdx) -= sig.b(r, 0) * sig.c(0, cdx) / dtilde;
      poles = sanitize_poles(la::eigenvalues(relocated),
                             opts.enforce_stability);
    }
  }

  // Final residue fit with the (possibly relocated) poles fixed.
  const std::vector<ss::ConjugateBlock> blocks = ss::conjugate_blocks(poles);
  const CMat phi_c = complex_basis(poles, blocks, s_points);
  const std::size_t nn = poles.size();
  CMat a1_c(k, nn + 1);
  a1_c.set_block(0, 0, phi_c);
  for (std::size_t r = 0; r < k; ++r) a1_c(r, nn) = 1.0;
  const Mat a1 = realify(a1_c);

  Mat rhs_all(2 * k, entries);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t col = i * m + j;
      for (std::size_t r = 0; r < k; ++r) {
        rhs_all(2 * r, col) = data[r].s(i, j).real();
        rhs_all(2 * r + 1, col) = data[r].s(i, j).imag();
      }
    }
  }

  Mat coeffs;
  if (a1.rows() >= a1.cols()) {
    try {
      coeffs = la::lstsq(a1, rhs_all);
    } catch (const la::SingularMatrixError&) {
      coeffs = la::lstsq_svd(a1, rhs_all, 1e-12);
    }
  } else {
    try {
      coeffs = la::lstsq_minnorm(a1, rhs_all);
    } catch (const la::SingularMatrixError&) {
      coeffs = la::lstsq_svd(a1, rhs_all, 1e-12);
    }
  }

  ss::PoleResidueModel model{poles, unpack_residues(nn, blocks, coeffs, p, m),
                             Mat(p, m)};
  for (std::size_t i = 0; i < p; ++i)
    for (std::size_t j = 0; j < m; ++j) model.d(i, j) = coeffs(nn, i * m + j);

  // RMS fit error of the final model.
  Real acc = 0.0;
  for (std::size_t r = 0; r < k; ++r) {
    const CMat h = model.evaluate(s_points[r]);
    for (std::size_t i = 0; i < p; ++i)
      for (std::size_t j = 0; j < m; ++j)
        acc += std::norm(h(i, j) - data[r].s(i, j));
  }
  res.rms_fit_error = std::sqrt(acc / static_cast<Real>(k * entries));
  res.order = nn;
  res.model = std::move(model);
  return res;
}

}  // namespace mfti::vf
