#include "statespace/response.hpp"

#include <cmath>
#include <numbers>
#include <utility>

#include "linalg/eig.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "parallel/parallel_for.hpp"

namespace mfti::ss {

namespace {

// One evaluation point: assemble the pencil, factor it once (inside
// la::solve's LU) and solve every port column of `b` against that single
// factorisation.
CMat eval_impl(const CMat& e, const CMat& a, const CMat& b, const CMat& c,
               const CMat& d, Complex s) {
  const std::size_t n = a.rows();
  CMat pencil(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) pencil(i, j) = s * e(i, j) - a(i, j);
  return c * la::solve(pencil, b) + d;
}

std::vector<Complex> to_jomega(const std::vector<Real>& freqs_hz) {
  std::vector<Complex> s;
  s.reserve(freqs_hz.size());
  for (Real f : freqs_hz) s.emplace_back(0.0, 2.0 * std::numbers::pi * f);
  return s;
}

// Plane rotation G = [c s; -conj(s) c] with G [a; b] = [r; 0]; `c` is real,
// so G is orthogonal for real T and unitary for complex T.
template <typename T>
struct Givens {
  Real c = 1.0;
  T s{};
};

template <typename T>
Givens<T> givens(const T& a, const T& b) {
  if (b == T{}) return {};
  const Real abs_a = std::abs(a);
  if (abs_a == 0.0) return {0.0, T{1}};
  const Real r = std::hypot(abs_a, std::abs(b));
  return {abs_a / r, (a / abs_a) * la::detail::conj_if_complex(b) / r};
}

// (x, y) <- (c x + s y, -conj(s) x + c y) on one pair of entries.
template <typename T>
void rotate(const Givens<T>& g, T& x, T& y) {
  const T xv = x;
  x = g.c * xv + g.s * y;
  y = g.c * y - la::detail::conj_if_complex(g.s) * xv;
}

// Hessenberg–triangular reduction (Golub & Van Loan, Alg. 7.7.1): a QR
// factorisation makes E upper triangular, then for each column j of A the
// entries below the subdiagonal are zeroed bottom-up by row rotations;
// each one fills in E(i, i-1), which a column rotation removes again.
// Row rotations also act on B (B~ = Q^* B), column rotations on C
// (C~ = C Z).
template <typename T>
void reduce_hessenberg_triangular(la::Matrix<T>& a, la::Matrix<T>& e,
                                  la::Matrix<T>& b, la::Matrix<T>& c) {
  const std::size_t n = a.rows();
  if (n == 0) return;
  {
    const la::QrDecomposition<T> qr(e);
    a = qr.apply_qt(std::move(a));
    b = qr.apply_qt(std::move(b));
    e = qr.r_thin();
  }
  for (std::size_t j = 0; j + 2 < n; ++j) {
    for (std::size_t i = n - 1; i >= j + 2; --i) {
      const Givens<T> q = givens(a(i - 1, j), a(i, j));
      if (q.s != T{}) {
        for (std::size_t k = j; k < n; ++k) rotate(q, a(i - 1, k), a(i, k));
        for (std::size_t k = i - 1; k < n; ++k) {
          rotate(q, e(i - 1, k), e(i, k));
        }
        for (std::size_t k = 0; k < b.cols(); ++k) {
          rotate(q, b(i - 1, k), b(i, k));
        }
      }
      a(i, j) = T{};
      const Givens<T> z = givens(e(i, i), e(i, i - 1));
      if (z.s != T{}) {
        for (std::size_t k = 0; k <= i; ++k) rotate(z, e(k, i), e(k, i - 1));
        for (std::size_t k = 0; k < n; ++k) rotate(z, a(k, i), a(k, i - 1));
        for (std::size_t k = 0; k < c.rows(); ++k) {
          rotate(z, c(k, i), c(k, i - 1));
        }
      }
      e(i, i - 1) = T{};
    }
  }
}

[[noreturn]] void throw_pole() {
  throw la::SingularMatrixError(
      "BatchEvaluator::evaluate: (sE - A) is singular (s is a pole)");
}

// Pivot magnitude |re| + |im|: as good as |z| for choosing between two
// rows, without the hypot.
Real abs1(const Complex& z) { return std::abs(z.real()) + std::abs(z.imag()); }

}  // namespace

CMat transfer_function(const DescriptorSystem& sys, Complex s) {
  sys.validate();
  return eval_impl(la::to_complex(sys.e), la::to_complex(sys.a),
                   la::to_complex(sys.b), la::to_complex(sys.c),
                   la::to_complex(sys.d), s);
}

CMat transfer_function(const ComplexDescriptorSystem& sys, Complex s) {
  sys.validate();
  return eval_impl(sys.e, sys.a, sys.b, sys.c, sys.d, s);
}

BatchEvaluator::BatchEvaluator(const DescriptorSystem& sys) {
  sys.validate();
  Mat a = sys.a;
  Mat e = sys.e;
  Mat b = sys.b;
  Mat c = sys.c;
  reduce_hessenberg_triangular(a, e, b, c);
  h_ = la::to_complex(a);
  t_ = la::to_complex(e);
  b_ = la::to_complex(b);
  c_ = la::to_complex(c);
  d_ = la::to_complex(sys.d);
}

BatchEvaluator::BatchEvaluator(const ComplexDescriptorSystem& sys)
    : h_(sys.a), t_(sys.e), b_(sys.b), c_(sys.c), d_(sys.d) {
  sys.validate();
  reduce_hessenberg_triangular(h_, t_, b_, c_);
}

CMat BatchEvaluator::evaluate(Complex s) const {
  const std::size_t n = order();
  const std::size_t m = num_inputs();
  // u = sT - H, upper Hessenberg; eliminated in place into the upper
  // triangle of the LU factors while x = B~ becomes the solution.
  CMat u(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i == 0 ? 0 : i - 1; j < n; ++j) {
      u(i, j) = s * t_(i, j) - h_(i, j);
    }
  }
  CMat x = b_;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    Complex* pivot_row = &u(k, 0);
    Complex* next_row = &u(k + 1, 0);
    if (abs1(next_row[k]) > abs1(pivot_row[k])) {
      for (std::size_t j = k; j < n; ++j) std::swap(pivot_row[j], next_row[j]);
      for (std::size_t col = 0; col < m; ++col) {
        std::swap(x(k, col), x(k + 1, col));
      }
    }
    if (pivot_row[k] == Complex{}) throw_pole();
    const Complex l = next_row[k] / pivot_row[k];
    if (l == Complex{}) continue;
    for (std::size_t j = k + 1; j < n; ++j) next_row[j] -= l * pivot_row[j];
    for (std::size_t col = 0; col < m; ++col) x(k + 1, col) -= l * x(k, col);
  }
  if (n > 0 && u(n - 1, n - 1) == Complex{}) throw_pole();
  for (std::size_t i = n; i-- > 0;) {
    // Row pointers through data(): a system without inputs has m = 0 and
    // an empty x.
    Complex* xi = x.data() + i * m;
    for (std::size_t j = i + 1; j < n; ++j) {
      const Complex uij = u(i, j);
      const Complex* xj = x.data() + j * m;
      for (std::size_t col = 0; col < m; ++col) xi[col] -= uij * xj[col];
    }
    const Complex inv = 1.0 / u(i, i);
    for (std::size_t col = 0; col < m; ++col) xi[col] *= inv;
  }
  return c_ * x + d_;
}

std::vector<CMat> BatchEvaluator::evaluate(
    const std::vector<Complex>& points,
    const parallel::ExecutionPolicy& exec) const {
  std::vector<CMat> out(points.size());
  parallel::parallel_for(points.size(), exec,
                         [&](std::size_t i) { out[i] = evaluate(points[i]); });
  return out;
}

std::vector<CMat> BatchEvaluator::sweep(
    const std::vector<Real>& freqs_hz,
    const parallel::ExecutionPolicy& exec) const {
  return evaluate(to_jomega(freqs_hz), exec);
}

std::vector<CMat> frequency_response(const DescriptorSystem& sys,
                                     const std::vector<Real>& freqs_hz,
                                     const parallel::ExecutionPolicy& exec) {
  return BatchEvaluator(sys).sweep(freqs_hz, exec);
}

std::vector<CMat> frequency_response(const ComplexDescriptorSystem& sys,
                                     const std::vector<Real>& freqs_hz,
                                     const parallel::ExecutionPolicy& exec) {
  return BatchEvaluator(sys).sweep(freqs_hz, exec);
}

std::vector<Complex> poles(const DescriptorSystem& sys) {
  sys.validate();
  if (sys.order() == 0) return {};
  return la::generalized_eigenvalues(sys.a, sys.e);
}

bool is_stable(const DescriptorSystem& sys, Real margin) {
  for (const Complex& p : poles(sys)) {
    if (p.real() >= -margin) return false;
  }
  return true;
}

std::vector<Real> bode_magnitude(const DescriptorSystem& sys,
                                 const std::vector<Real>& freqs_hz,
                                 std::size_t out, std::size_t in,
                                 const parallel::ExecutionPolicy& exec) {
  if (out >= sys.num_outputs() || in >= sys.num_inputs()) {
    throw std::invalid_argument("bode_magnitude: port index out of range");
  }
  std::vector<Real> mag;
  mag.reserve(freqs_hz.size());
  for (const CMat& h : frequency_response(sys, freqs_hz, exec)) {
    mag.push_back(std::abs(h(out, in)));
  }
  return mag;
}

}  // namespace mfti::ss
