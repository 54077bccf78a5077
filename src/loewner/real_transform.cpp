#include "loewner/real_transform.hpp"

#include <stdexcept>

namespace mfti::loewner {

namespace {

/// The 2x2 block of one conjugate pair of width t: entry [a][b] is
/// T(off + a t + i, off + b t + i) for every i < t, and T is zero elsewhere.
struct PairBlock {
  Complex p[2][2];
};

PairBlock pair_block() {
  const Real inv_sqrt2 = 0.7071067811865476;
  const Complex j(0.0, 1.0);
  // [ I  -jI ]
  // [ I   jI ]  scaled by 1/sqrt(2)
  return {{{inv_sqrt2, -j * inv_sqrt2}, {inv_sqrt2, j * inv_sqrt2}}};
}

std::size_t pair_total(const std::vector<std::size_t>& pair_t) {
  std::size_t total = 0;
  for (std::size_t t : pair_t) total += 2 * t;
  return total;
}

// The transforms have two nonzeros per row and column, so each entry of
// T_L^* Y and Y T_R is a sum of two products. Both accumulate from zero, in
// the dense product's k order and with its complex products: adding the
// dense GEMM's zero terms changes nothing, so the results are bitwise the
// dense products with `pair_transform` (unless the compiler contracts the
// sums to FMA).

/// T_L^* y: rows off + a t + i of the result mix rows off + i and
/// off + t + i of y with (T_L^*)(off + a t + i, off + b t + i) =
/// conj(p[b][a]).
CMat apply_left_adjoint(const std::vector<std::size_t>& pair_t, const CMat& y) {
  if (pair_total(pair_t) != y.rows()) {
    throw std::invalid_argument(
        "real_transform: left pair sizes do not match the row count");
  }
  const PairBlock blk = pair_block();
  const Complex l[2][2] = {{std::conj(blk.p[0][0]), std::conj(blk.p[1][0])},
                           {std::conj(blk.p[0][1]), std::conj(blk.p[1][1])}};
  CMat out(y.rows(), y.cols());
  if (out.empty()) return out;
  const std::size_t n = y.cols();
  std::size_t off = 0;
  for (std::size_t t : pair_t) {
    for (std::size_t i = 0; i < t; ++i) {
      const Complex* y0 = &y(off + i, 0);
      const Complex* y1 = &y(off + t + i, 0);
      for (std::size_t a = 0; a < 2; ++a) {
        Complex* row = &out(off + a * t + i, 0);
        for (std::size_t c = 0; c < n; ++c) {
          Complex acc{};
          acc += l[a][0] * y0[c];
          acc += l[a][1] * y1[c];
          row[c] = acc;
        }
      }
    }
    off += 2 * t;
  }
  return out;
}

/// y T_R: columns off + b t + i of the result mix columns off + i and
/// off + t + i of y with T_R(off + a t + i, off + b t + i) = p[a][b].
CMat apply_right(const CMat& y, const std::vector<std::size_t>& pair_t) {
  if (pair_total(pair_t) != y.cols()) {
    throw std::invalid_argument(
        "real_transform: right pair sizes do not match the column count");
  }
  const PairBlock blk = pair_block();
  CMat out(y.rows(), y.cols());
  if (out.empty()) return out;
  for (std::size_t r = 0; r < y.rows(); ++r) {
    const Complex* in = &y(r, 0);
    Complex* row = &out(r, 0);
    std::size_t off = 0;
    for (std::size_t t : pair_t) {
      for (std::size_t i = 0; i < t; ++i) {
        const Complex x0 = in[off + i];
        const Complex x1 = in[off + t + i];
        for (std::size_t b = 0; b < 2; ++b) {
          Complex acc{};
          acc += x0 * blk.p[0][b];
          acc += x1 * blk.p[1][b];
          row[off + b * t + i] = acc;
        }
      }
      off += 2 * t;
    }
  }
  return out;
}

}  // namespace

CMat pair_transform(const std::vector<std::size_t>& pair_t) {
  const std::size_t total = pair_total(pair_t);
  CMat out(total, total);
  const PairBlock blk = pair_block();
  std::size_t off = 0;
  for (std::size_t t : pair_t) {
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t a = 0; a < 2; ++a) {
        for (std::size_t b = 0; b < 2; ++b) {
          out(off + a * t + i, off + b * t + i) = blk.p[a][b];
        }
      }
    }
    off += 2 * t;
  }
  return out;
}

RealLoewnerPencil real_transform(const TangentialData& d, const CMat& loewner,
                                 const CMat& shifted, Real tol) {
  const CMat ll = apply_right(apply_left_adjoint(d.left_t, loewner), d.right_t);
  const CMat sll =
      apply_right(apply_left_adjoint(d.left_t, shifted), d.right_t);
  const CMat v = apply_left_adjoint(d.left_t, d.v);
  const CMat w = apply_right(d.w, d.right_t);

  for (const CMat* m : {&ll, &sll, &v, &w}) {
    if (!la::is_effectively_real(*m, tol)) {
      throw std::invalid_argument(
          "real_transform: transformed matrices are not real — data is not "
          "conjugate-symmetric");
    }
  }
  return {la::real_part(ll), la::real_part(sll), la::real_part(v),
          la::real_part(w)};
}

RealLoewnerPencil real_transform(const TangentialData& d, Real tol) {
  const auto [ll, sll] = loewner_pair(d);
  return real_transform(d, ll, sll, tol);
}

}  // namespace mfti::loewner
