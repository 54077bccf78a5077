#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/householder.hpp"
#include "parallel/parallel_for.hpp"

namespace mfti::la {

namespace {

constexpr Real kEps = std::numeric_limits<Real>::epsilon();

using parallel::grained;

// ---------------------------------------------------------------------------
// One-sided Jacobi (high relative accuracy; O(n^3) per sweep). Kept both as
// the small-matrix path and as an independent cross-check for the
// Golub–Kahan path in the test suite.
// ---------------------------------------------------------------------------

// One plane rotation applied to the column pair (p, q) of g, mirrored onto
// v unless v is empty (V not wanted). Returns true when a rotation was
// applied. The column-pair Gram entries and the rotation sweep run through
// the dispatched Jacobi kernels (simd::kernels<T>()); disjoint pairs touch
// disjoint columns, so the parallel tournament stays bitwise equal to the
// serial one for either kernel table.
template <typename T>
bool rotate_pair(Matrix<T>& g, Matrix<T>& v, std::size_t p, std::size_t q,
                 Real tol) {
  const auto& kt = simd::kernels<T>();
  const std::size_t m = g.rows();
  Real app = 0.0, aqq = 0.0;
  T apq{};
  kt.jacobi_dots(m, g.cols(), &g(0, p), &g(0, q), &app, &aqq, &apq);
  const Real off = detail::abs_value(apq);
  if (off <= tol * std::sqrt(app) * std::sqrt(aqq) || off == 0.0) {
    return false;
  }

  const T phase = apq / static_cast<T>(off);
  const Real tau = (aqq - app) / (2.0 * off);
  const Real t = (tau >= 0 ? 1.0 : -1.0) /
                 (std::abs(tau) + std::sqrt(1.0 + tau * tau));
  const Real c = 1.0 / std::sqrt(1.0 + t * t);
  const Real s = t * c;

  const T phc = detail::conj_if_complex(phase);
  kt.jacobi_rotate(m, g.cols(), &g(0, p), &g(0, q), c, s, phc);
  if (v.rows() > 0) {
    kt.jacobi_rotate(v.rows(), v.cols(), &v(0, p), &v(0, q), c, s, phc);
  }
  return true;
}

// One sweep visits every column pair exactly once via the round-robin
// (circle) tournament: position 0 is fixed, the other n_pad - 1 positions
// rotate one step between rounds, and round r pairs position t with
// position n_pad - 1 - t. All pairs within a round are disjoint, so they
// can rotate concurrently; the serial path visits the same rounds in the
// same pair order, which keeps parallel sweeps bitwise identical to
// serial ones. The rotations of g never read v, so leaving V out (or U,
// which is read off g at the end) changes neither s nor the other factor.
template <typename T>
Svd<T> svd_jacobi_tall(const Matrix<T>& a, const SvdOptions& opts,
                       bool want_u, bool want_v) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix<T> g = a;
  Matrix<T> v = want_v ? Matrix<T>::identity(n) : Matrix<T>();

  // Ring of column indices for the tournament schedule; odd n gets one
  // dummy slot whose pairings are byes.
  const std::size_t n_pad = n + (n % 2);
  std::vector<std::size_t> ring(n_pad);
  std::iota(ring.begin(), ring.end(), 0);
  std::vector<std::size_t> pair_p, pair_q;
  std::vector<char> rotated(n_pad / 2);

  bool converged = (n <= 1);
  for (int sweep = 0; sweep < opts.max_sweeps && !converged; ++sweep) {
    bool any = false;
    std::iota(ring.begin(), ring.end(), 0);
    for (std::size_t round = 0; round + 1 < n_pad; ++round) {
      pair_p.clear();
      pair_q.clear();
      for (std::size_t t = 0; t < n_pad / 2; ++t) {
        std::size_t p = ring[t];
        std::size_t q = ring[n_pad - 1 - t];
        if (p >= n || q >= n) continue;  // bye against the dummy slot
        if (p > q) std::swap(p, q);
        pair_p.push_back(p);
        pair_q.push_back(q);
      }
      // Disjoint column pairs: each task reads and writes only its own
      // two columns of g and v.
      const auto pol = grained(opts.exec, pair_p.size() * 6 * m);
      rotated.assign(pair_p.size(), 0);
      parallel::parallel_for(pair_p.size(), pol, [&](std::size_t t) {
        rotated[t] =
            rotate_pair(g, v, pair_p[t], pair_q[t], opts.tol) ? 1 : 0;
      });
      for (std::size_t t = 0; t < pair_p.size(); ++t) {
        any = any || rotated[t] != 0;
      }
      // Advance the schedule: rotate positions 1..n_pad-1 by one step.
      std::rotate(ring.begin() + 1, ring.end() - 1, ring.end());
    }
    converged = !any;
  }
  if (!converged) {
    throw ConvergenceError("svd: Jacobi sweeps did not converge");
  }

  std::vector<Real> s(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    Real nrm2 = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const Real gi = detail::abs_value(g(i, j));
      nrm2 += gi * gi;
    }
    s[j] = std::sqrt(nrm2);
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return s[i] > s[j]; });

  Svd<T> out;
  out.u = Matrix<T>(m, want_u ? n : 0);
  out.v = Matrix<T>(n, want_v ? n : 0);
  out.s.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    out.s[j] = s[src];
    if (want_u && s[src] > 0.0) {
      for (std::size_t i = 0; i < m; ++i)
        out.u(i, j) = g(i, src) / static_cast<T>(s[src]);
    }
    if (want_v) {
      for (std::size_t i = 0; i < n; ++i) out.v(i, j) = v(i, src);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Golub–Kahan: Householder bidiagonalization + implicit-shift QR on the
// bidiagonal (the classic dense SVD; O(m n^2) total).
// ---------------------------------------------------------------------------

struct GivensRot {
  Real c;
  Real s;
};

// c*x + s*y = r, -s*x + c*y = 0.
GivensRot make_rot(Real x, Real y) {
  if (y == 0.0) return {1.0, 0.0};
  if (x == 0.0) return {0.0, 1.0};
  const Real r = std::hypot(x, y);
  return {x / r, y / r};
}

// Rotation of the singular-vector pair (a, b), which U^T and V^T hold as
// the contiguous rows a and b:
// row_a' = c row_a + s row_b ; row_b' = -s row_a + c row_b.
template <typename T>
void rotate_rows(Matrix<T>* mat, std::size_t a, std::size_t b,
                 const GivensRot& g) {
  if (mat == nullptr) return;
  const T c = static_cast<T>(g.c);
  const T s = static_cast<T>(g.s);
  T* ra = &(*mat)(a, 0);
  T* rb = &(*mat)(b, 0);
  for (std::size_t i = 0; i < mat->cols(); ++i) {
    const T xa = ra[i];
    const T xb = rb[i];
    ra[i] = c * xa + s * xb;
    rb[i] = -s * xa + c * xb;
  }
}

// One implicit-shift Golub–Kahan SVD step on the window [lo, hi] of the
// real bidiagonal (d, e), accumulating rotations into ut/vt when non-null.
// The (d, e) recurrence never reads ut or vt.
void gk_step(std::vector<Real>& d, std::vector<Real>& e, std::size_t lo,
             std::size_t hi, auto* ut, auto* vt) {
  // Wilkinson shift from the trailing 2x2 of B^T B.
  const Real dm = d[hi - 1];
  const Real dn = d[hi];
  const Real em = e[hi - 1];
  const Real em2 = (hi - 1 > lo) ? e[hi - 2] : 0.0;
  const Real t11 = dm * dm + em2 * em2;
  const Real t12 = dm * em;
  const Real t22 = dn * dn + em * em;
  const Real delta = 0.5 * (t11 - t22);
  Real mu = t22;
  if (t12 != 0.0) {
    const Real denom =
        delta + (delta >= 0 ? 1.0 : -1.0) * std::hypot(delta, t12);
    if (denom != 0.0) mu = t22 - t12 * t12 / denom;
  }

  Real y = d[lo] * d[lo] - mu;
  Real z = d[lo] * e[lo];
  for (std::size_t k = lo; k < hi; ++k) {
    // Right rotation on columns (k, k+1) — zeroes z against y.
    const GivensRot r = make_rot(y, z);
    if (k > lo) e[k - 1] = r.c * y + r.s * z;
    const Real dk = d[k];
    const Real ek = e[k];
    d[k] = r.c * dk + r.s * ek;
    e[k] = -r.s * dk + r.c * ek;
    const Real bulge = r.s * d[k + 1];
    d[k + 1] = r.c * d[k + 1];
    rotate_rows(vt, k, k + 1, r);

    // Left rotation on rows (k, k+1) — chases the bulge at (k+1, k).
    const GivensRot l = make_rot(d[k], bulge);
    d[k] = l.c * d[k] + l.s * bulge;
    const Real ek2 = e[k];
    e[k] = l.c * ek2 + l.s * d[k + 1];
    d[k + 1] = -l.s * ek2 + l.c * d[k + 1];
    rotate_rows(ut, k, k + 1, l);
    if (k + 1 < hi) {
      y = e[k];
      z = l.s * e[k + 1];
      e[k + 1] = l.c * e[k + 1];
    }
  }
}

// d[i] is negligible: zero out row i by rotating it against rows below.
void chase_zero_diag_row(std::vector<Real>& d, std::vector<Real>& e,
                         std::size_t i, std::size_t hi, auto* ut) {
  Real f = e[i];
  e[i] = 0.0;
  d[i] = 0.0;
  for (std::size_t j = i + 1; j <= hi; ++j) {
    const GivensRot g = make_rot(d[j], f);
    d[j] = g.c * d[j] + g.s * f;
    rotate_rows(ut, j, i, g);
    if (j < hi) {
      f = -g.s * e[j];
      e[j] = g.c * e[j];
    }
  }
}

// d[hi] is negligible: zero out column hi by rotating it against columns to
// the left.
void chase_zero_diag_col(std::vector<Real>& d, std::vector<Real>& e,
                         std::size_t lo, std::size_t hi, auto* vt) {
  Real f = e[hi - 1];
  e[hi - 1] = 0.0;
  d[hi] = 0.0;
  for (std::size_t j = hi; j-- > lo;) {
    const GivensRot g = make_rot(d[j], f);
    d[j] = g.c * d[j] + g.s * f;
    rotate_rows(vt, j, hi, g);
    if (j > lo) {
      f = -g.s * e[j - 1];
      e[j - 1] = g.c * e[j - 1];
    }
  }
}

template <typename T>
T phase_of(const T& x) {
  const Real a = detail::abs_value(x);
  if (a == 0.0) return T{1};
  return x / static_cast<T>(a);
}

// Full Golub–Kahan SVD of a tall matrix (m >= n). A factor not wanted is
// neither accumulated nor rotated and comes back with zero columns; the
// bidiagonal recurrence never reads U or V, so s and the other factor are
// bitwise the same either way. The Householder panel updates and the U/V
// accumulation fan out over columns/rows under a parallel `exec`
// (per-column arithmetic unchanged -> bitwise identical); the bidiagonal QR
// iteration is inherently sequential and stays serial.
template <typename T>
Svd<T> svd_golub_kahan_tall(const Matrix<T>& a, bool want_u, bool want_v,
                            const parallel::ExecutionPolicy& exec) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix<T> g = a;
  std::vector<Real> beta_left(n, 0.0);
  std::vector<Real> beta_right(n, 0.0);
  std::vector<T> scratch;

  // --- Householder bidiagonalization --------------------------------------
  for (std::size_t k = 0; k < n; ++k) {
    // Left reflector: zero column k below the diagonal.
    {
      Real normx2 = 0.0;
      for (std::size_t i = k; i < m; ++i) {
        const Real ax = detail::abs_value(g(i, k));
        normx2 += ax * ax;
      }
      const Real normx = std::sqrt(normx2);
      if (normx > 0.0) {
        const T x0 = g(k, k);
        const Real ax0 = detail::abs_value(x0);
        const T alpha = ax0 == 0.0 ? static_cast<T>(-normx)
                                   : -phase_of(x0) * static_cast<T>(normx);
        const T v0 = x0 - alpha;
        const Real v0abs = detail::abs_value(v0);
        if (v0abs > 0.0) {
          const Real vtv = 2.0 * normx * (normx + ax0);
          beta_left[k] = 2.0 * v0abs * v0abs / vtv;
          for (std::size_t i = k + 1; i < m; ++i) g(i, k) = g(i, k) / v0;
          g(k, k) = alpha;
          detail::apply_reflector(g, k, beta_left[k], g, k + 1, scratch,
                                  exec);
        }
      }
    }
    // Right reflector: zero row k right of the superdiagonal.
    if (k + 2 < n) {
      Real normx2 = 0.0;
      for (std::size_t j = k + 1; j < n; ++j) {
        const Real ax = detail::abs_value(g(k, j));
        normx2 += ax * ax;
      }
      const Real normx = std::sqrt(normx2);
      if (normx > 0.0) {
        // Work with the conjugated row as a column vector x = (row)^*.
        const T x0 = detail::conj_if_complex(g(k, k + 1));
        const Real ax0 = detail::abs_value(x0);
        const T alpha = ax0 == 0.0 ? static_cast<T>(-normx)
                                   : -phase_of(x0) * static_cast<T>(normx);
        const T v0 = x0 - alpha;
        const Real v0abs = detail::abs_value(v0);
        if (v0abs > 0.0) {
          const Real vtv = 2.0 * normx * (normx + ax0);
          beta_right[k] = 2.0 * v0abs * v0abs / vtv;
          // Store scaled v (v_{k+1} = 1) conjugated back into the row.
          for (std::size_t j = k + 2; j < n; ++j) {
            g(k, j) = detail::conj_if_complex(
                detail::conj_if_complex(g(k, j)) / v0);
          }
          g(k, k + 1) = detail::conj_if_complex(alpha);
          // Apply from the right to rows k+1..m-1:
          // row <- row - beta (row . v) v^*   with v_j = conj(g(k, j)).
          // Row i only reads the (frozen) reflector in row k and writes row
          // i -> independent across i; the contiguous row slices run
          // through the dispatched cdot/axpy kernels.
          const auto& kt = simd::kernels<T>();
          const std::size_t tail = n - (k + 2);
          const auto pol = grained(exec, (m - k - 1) * (n - k - 1));
          parallel::parallel_for_chunks(
              m - (k + 1), pol, [&](std::size_t r0, std::size_t r1) {
                for (std::size_t i = k + 1 + r0; i < k + 1 + r1; ++i) {
                  // cdot(x, y) = sum conj(x_j) y_j, so with x = the packed
                  // reflector row this is sum g(i, j) conj(g(k, j)). Note
                  // the tail folds in cdot's own accumulator before the
                  // leading term is added — a deliberate reassociation vs
                  // the pre-dispatch loop (rounding-level, chunk-
                  // independent either way).
                  T w = g(i, k + 1) +
                        kt.cdot(tail, &g(k, k + 2), &g(i, k + 2));
                  w *= static_cast<T>(beta_right[k]);
                  g(i, k + 1) -= w;
                  kt.axpy(tail, -w, &g(k, k + 2), &g(i, k + 2));
                }
              });
        }
      }
    }
  }

  // --- accumulate U^T (n x m) and V^T (n x n) ------------------------------
  // Row k of ut / vt is column k of U / V, so the QR sweep below rotates
  // contiguous rows; per entry the arithmetic is that of rotating columns.
  Matrix<T> ut, vt;
  if (want_u) {
    Matrix<T> u_mat(m, n);
    for (std::size_t i = 0; i < n; ++i) u_mat(i, i) = T{1};
    for (std::size_t k = n; k-- > 0;) {
      detail::apply_reflector(g, k, beta_left[k], u_mat, 0, scratch, exec);
    }
    ut = u_mat.transpose();
  }
  if (want_v) {
    vt = Matrix<T>::identity(n);
    for (std::size_t k = (n >= 2 ? n - 2 : 0); k-- > 0;) {
      if (beta_right[k] == 0.0) continue;
      // P = I - beta v v^* with v_j = conj(g(k, j)) for j >= k+2, v_{k+1}=1,
      // applied to each column j of V (row j of vt).
      const auto pol = grained(exec, (n - k) * n);
      parallel::parallel_for_chunks(
          n, pol, [&](std::size_t j0, std::size_t j1) {
            for (std::size_t j = j0; j < j1; ++j) {
              T* col = &vt(j, 0);
              T w = col[k + 1];
              for (std::size_t i = k + 2; i < n; ++i)
                w += g(k, i) * col[i];  // conj(v_i) = g(k, i)
              w *= static_cast<T>(beta_right[k]);
              col[k + 1] -= w;
              for (std::size_t i = k + 2; i < n; ++i)
                col[i] -= detail::conj_if_complex(g(k, i)) * w;
            }
          });
    }
  }

  // --- phase-normalise the bidiagonal to real, non-negative ----------------
  std::vector<Real> d(n, 0.0);
  std::vector<Real> e(n > 0 ? n - 1 : 0, 0.0);
  T dr = T{1};  // running right phase (applies to V column k, row k of vt)
  for (std::size_t k = 0; k < n; ++k) {
    const T dk = g(k, k) * dr;
    const T dl = phase_of(dk);
    d[k] = detail::abs_value(dk);
    if (want_u && dl != T{1}) {
      for (std::size_t i = 0; i < m; ++i) ut(k, i) = ut(k, i) * dl;
    }
    if (k + 1 < n) {
      const T ek = detail::conj_if_complex(dl) * g(k, k + 1);
      const T drn = detail::conj_if_complex(phase_of(ek));
      e[k] = detail::abs_value(ek);
      if (want_v && drn != T{1}) {
        for (std::size_t i = 0; i < n; ++i)
          vt(k + 1, i) = vt(k + 1, i) * drn;
      }
      dr = drn;
    }
  }

  // --- implicit-shift QR on the real bidiagonal ----------------------------
  // Only the wanted factors are rotated (null pointers skip the others).
  Matrix<T>* ut_rows = want_u ? &ut : nullptr;
  Matrix<T>* vt_rows = want_v ? &vt : nullptr;
  if (n >= 2) {
    Real bnorm = 0.0;
    for (Real x : d) bnorm = std::max(bnorm, std::abs(x));
    for (Real x : e) bnorm = std::max(bnorm, std::abs(x));
    const Real tiny = std::max(bnorm, 1.0) * 1e-290;

    std::size_t hi = n - 1;
    std::size_t iter = 0;
    const std::size_t max_iter = 60 * n * n + 1000;
    while (true) {
      for (std::size_t i = 0; i + 1 < n; ++i) {
        if (std::abs(e[i]) <=
            kEps * (std::abs(d[i]) + std::abs(d[i + 1])) + tiny * kEps) {
          e[i] = 0.0;
        }
      }
      while (hi > 0 && e[hi - 1] == 0.0) --hi;
      if (hi == 0) break;
      std::size_t lo = hi - 1;
      while (lo > 0 && e[lo - 1] != 0.0) --lo;

      if (++iter > max_iter) {
        throw ConvergenceError("svd: bidiagonal QR did not converge");
      }

      // Negligible diagonal entries require a special chase.
      const Real dtol = kEps * (bnorm + tiny);
      if (std::abs(d[hi]) <= dtol) {
        chase_zero_diag_col(d, e, lo, hi, vt_rows);
        continue;
      }
      bool chased = false;
      for (std::size_t i = lo; i < hi; ++i) {
        if (std::abs(d[i]) <= dtol) {
          chase_zero_diag_row(d, e, i, hi, ut_rows);
          chased = true;
          break;
        }
      }
      if (chased) continue;

      gk_step(d, e, lo, hi, ut_rows, vt_rows);
    }
  }

  // --- signs, sorting, output ----------------------------------------------
  for (std::size_t k = 0; k < n; ++k) {
    if (d[k] < 0.0) {
      d[k] = -d[k];
      if (want_v) {
        for (std::size_t i = 0; i < n; ++i) vt(k, i) = -vt(k, i);
      }
    }
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return d[i] > d[j]; });

  Svd<T> out;
  out.s.resize(n);
  out.u = Matrix<T>(m, want_u ? n : 0);
  out.v = Matrix<T>(n, want_v ? n : 0);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    out.s[j] = d[src];
    if (want_u) {
      for (std::size_t i = 0; i < m; ++i) out.u(i, j) = ut(src, i);
    }
    if (want_v) {
      for (std::size_t i = 0; i < n; ++i) out.v(i, j) = vt(src, i);
    }
  }
  return out;
}

template <typename T>
Svd<T> svd_tall(const Matrix<T>& a, const SvdOptions& opts, bool want_u,
                bool want_v) {
  switch (opts.algorithm) {
    case SvdAlgorithm::Jacobi:
      return svd_jacobi_tall(a, opts, want_u, want_v);
    case SvdAlgorithm::GolubKahan:
      return svd_golub_kahan_tall(a, want_u, want_v, opts.exec);
    case SvdAlgorithm::Auto:
      break;
  }
  if (a.cols() <= 32) return svd_jacobi_tall(a, opts, want_u, want_v);
  return svd_golub_kahan_tall(a, want_u, want_v, opts.exec);
}

template <typename T>
Svd<T> svd_impl(const Matrix<T>& a, const SvdOptions& opts, bool want_u,
                bool want_v) {
  if (a.empty()) {
    return Svd<T>{Matrix<T>(a.rows(), 0), {}, Matrix<T>(a.cols(), 0)};
  }
  if (a.rows() >= a.cols()) {
    return svd_tall(a, opts, want_u, want_v);
  }
  // SVD of the adjoint, then swap the factors: A^* = U S V^* =>
  // A = V S U^*.
  Svd<T> t = svd_tall(a.adjoint(), opts, want_v, want_u);
  return Svd<T>{std::move(t.v), std::move(t.s), std::move(t.u)};
}

}  // namespace

template <typename T>
Matrix<T> Svd<T>::reconstruct() const {
  Matrix<T> us = u;
  for (std::size_t j = 0; j < s.size(); ++j)
    for (std::size_t i = 0; i < us.rows(); ++i)
      us(i, j) *= static_cast<T>(s[j]);
  return us * v.adjoint();
}

template <typename T>
Svd<T> svd(const Matrix<T>& a, const SvdOptions& opts) {
  return svd_impl(a, opts, opts.vectors != SvdVectors::Right,
                  opts.vectors != SvdVectors::Left);
}

template <typename T>
std::vector<Real> singular_values(const Matrix<T>& a, const SvdOptions& opts) {
  return svd_impl(a, opts, /*want_u=*/false, /*want_v=*/false).s;
}

std::size_t numerical_rank(const std::vector<Real>& s, Real rel_tol) {
  if (s.empty() || s.front() <= 0.0) return 0;
  const Real bound = rel_tol * s.front();
  std::size_t r = 0;
  while (r < s.size() && s[r] > bound) ++r;
  return r;
}

std::size_t rank_by_largest_gap(const std::vector<Real>& s, Real min_gap,
                                Real floor_tol) {
  if (s.empty() || s.front() <= 0.0) return 0;
  const Real floor = floor_tol * s.front();
  Real best_gap = 0.0;
  std::size_t best = s.size();
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    const Real hi = s[i];
    const Real lo = std::max(s[i + 1], 0.0);
    if (hi <= floor) break;  // everything below here is noise
    const Real gap = lo <= floor ? hi / std::max(floor, 1e-300) : hi / lo;
    if (gap > best_gap) {
      best_gap = gap;
      best = i + 1;
    }
  }
  return best_gap >= min_gap ? best : s.size();
}

template struct Svd<Real>;
template struct Svd<Complex>;
template Svd<Real> svd(const Matrix<Real>&, const SvdOptions&);
template Svd<Complex> svd(const Matrix<Complex>&, const SvdOptions&);
template std::vector<Real> singular_values(const Matrix<Real>&,
                                           const SvdOptions&);
template std::vector<Real> singular_values(const Matrix<Complex>&,
                                           const SvdOptions&);

}  // namespace mfti::la
