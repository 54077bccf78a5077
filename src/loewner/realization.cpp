#include "loewner/realization.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/multiply.hpp"
#include "linalg/svd.hpp"

namespace mfti::loewner {

namespace {

Real dominant_omega(const TangentialData& d) {
  Real w = 0.0;
  for (const Complex& x : d.lambda) w = std::max(w, std::abs(x));
  for (const Complex& x : d.mu) w = std::max(w, std::abs(x));
  return w > 0.0 ? w : 1.0;
}

std::size_t select_order(const std::vector<Real>& s,
                         const RealizationOptions& opts) {
  if (s.empty()) return 0;
  switch (opts.selection) {
    case OrderSelection::Fixed:
      return std::min<std::size_t>(opts.fixed_order, s.size());
    case OrderSelection::Tolerance:
      return la::numerical_rank(s, opts.rank_tol);
    case OrderSelection::LargestGap: {
      const std::size_t r = la::rank_by_largest_gap(s, opts.gap_min);
      if (r < s.size()) return r;
      return la::numerical_rank(s, opts.rank_tol);
    }
  }
  return s.size();
}

la::SvdOptions svd_options(la::SvdVectors vectors,
                           const RealizationOptions& opts) {
  la::SvdOptions svd_opts;
  svd_opts.vectors = vectors;
  svd_opts.exec = opts.exec;
  return svd_opts;
}

template <typename T>
la::Matrix<T> scale_matrix(const la::Matrix<T>& a, Real f) {
  la::Matrix<T> out = a;
  out *= static_cast<T>(f);
  return out;
}

}  // namespace

Realization realize(const TangentialData& d, const RealizationOptions& opts) {
  const auto [ll, sll] = loewner_pair(d, opts.exec);
  return realize(d, ll, sll, opts);
}

Realization realize(const TangentialData& d, const CMat& loewner,
                    const CMat& shifted, const RealizationOptions& opts) {
  d.validate();
  const RealLoewnerPencil rp = real_transform(d, loewner, shifted);
  const Real w0 = opts.frequency_scaling ? dominant_omega(d) : 1.0;

  // Row space of [w0*LL, sLL]  ->  Y;  column space of [w0*LL; sLL] -> X.
  // Each SVD computes only the factor read below.
  const Mat ll_s = scale_matrix(rp.loewner, w0);
  const la::Svd<Real> row_svd = la::svd(
      la::hstack(ll_s, rp.shifted), svd_options(la::SvdVectors::Left, opts));
  const la::Svd<Real> col_svd = la::svd(
      la::vstack(ll_s, rp.shifted), svd_options(la::SvdVectors::Right, opts));

  std::size_t r = std::min(select_order(row_svd.s, opts),
                           select_order(col_svd.s, opts));
  r = std::min({r, d.left_height(), d.right_width()});
  if (r == 0) {
    throw std::invalid_argument(
        "realize: data has numerical rank 0 (all samples zero?)");
  }

  const Mat y = row_svd.u.block(0, 0, d.left_height(), r);
  const Mat x = col_svd.v.block(0, 0, d.right_width(), r);
  const Mat yt = y.transpose();

  // Project the pencil down to order r; the O(n^3) products fan out row-wise
  // under opts.exec (bitwise identical to the serial products).
  const auto& exec = opts.exec;
  ss::DescriptorSystem model{
      -la::multiply(la::multiply(yt, rp.loewner, exec), x, exec),
      -la::multiply(la::multiply(yt, rp.shifted, exec), x, exec),
      la::multiply(yt, rp.v, exec), la::multiply(rp.w, x, exec),
      Mat(d.num_outputs(), d.num_inputs())};
  model.validate();
  return {std::move(model), row_svd.s, r};
}

ComplexRealization realize_complex(const TangentialData& d,
                                   RealizationOptions opts) {
  d.validate();
  const auto [ll, sll] = loewner_pair(d, opts.exec);
  const Real w0 = opts.frequency_scaling ? dominant_omega(d) : 1.0;

  std::vector<Real> sel_s;
  CMat y, x;
  if (opts.pencil == SvdPencil::TwoSided) {
    const CMat ll_s = scale_matrix(ll, w0);
    const la::Svd<Complex> row_svd = la::svd(
        la::hstack(ll_s, sll), svd_options(la::SvdVectors::Left, opts));
    const la::Svd<Complex> col_svd = la::svd(
        la::vstack(ll_s, sll), svd_options(la::SvdVectors::Right, opts));
    std::size_t r = std::min(select_order(row_svd.s, opts),
                             select_order(col_svd.s, opts));
    r = std::min({r, d.left_height(), d.right_width()});
    if (r == 0) {
      throw std::invalid_argument("realize_complex: numerical rank 0");
    }
    y = row_svd.u.block(0, 0, d.left_height(), r);
    x = col_svd.v.block(0, 0, d.right_width(), r);
    sel_s = row_svd.s;
  } else {
    const Complex x0 = opts.x0.value_or(d.mu.front());
    // pencil = x0 LL - sLL. Note that no extra balancing is needed here:
    // picking x0 among the sample points (|x0| ~ w0) already puts the
    // x0*LL term on sLL's scale — which is exactly why the paper chooses
    // x0 from {lambda_i} ∪ {mu_i}.
    CMat pencil(d.left_height(), d.right_width());
    for (std::size_t i = 0; i < pencil.rows(); ++i)
      for (std::size_t j = 0; j < pencil.cols(); ++j)
        pencil(i, j) = x0 * ll(i, j) - sll(i, j);
    const la::Svd<Complex> ps =
        la::svd(pencil, svd_options(la::SvdVectors::Both, opts));
    std::size_t r = select_order(ps.s, opts);
    r = std::min({r, d.left_height(), d.right_width()});
    if (r == 0) {
      throw std::invalid_argument("realize_complex: numerical rank 0");
    }
    y = ps.u.block(0, 0, d.left_height(), r);
    x = ps.v.block(0, 0, d.right_width(), r);
    sel_s = ps.s;
  }

  const CMat ya = y.adjoint();
  const auto& exec = opts.exec;
  ss::ComplexDescriptorSystem model{
      -la::multiply(la::multiply(ya, ll, exec), x, exec),
      -la::multiply(la::multiply(ya, sll, exec), x, exec),
      la::multiply(ya, d.v, exec), la::multiply(d.w, x, exec),
      CMat(d.num_outputs(), d.num_inputs())};
  model.validate();
  const std::size_t r = model.order();
  return {std::move(model), std::move(sel_s), r};
}

ss::ComplexDescriptorSystem realize_full_complex(const TangentialData& d) {
  d.validate();
  if (d.left_height() != d.right_width()) {
    throw std::invalid_argument(
        "realize_full_complex: needs a square Loewner matrix (Kl == Kr)");
  }
  const auto [ll, sll] = loewner_pair(d);
  ss::ComplexDescriptorSystem model{-ll, -sll, d.v, d.w,
                                    CMat(d.num_outputs(), d.num_inputs())};
  model.validate();
  return model;
}

PencilSingularValues pencil_singular_values(const TangentialData& d,
                                            std::optional<Complex> x0_opt) {
  d.validate();
  const auto [ll, sll] = loewner_pair(d);
  const Complex x0 = x0_opt.value_or(d.mu.front());
  CMat pencil(ll.rows(), ll.cols());
  for (std::size_t i = 0; i < ll.rows(); ++i)
    for (std::size_t j = 0; j < ll.cols(); ++j)
      pencil(i, j) = x0 * ll(i, j) - sll(i, j);
  return {la::singular_values(ll), la::singular_values(sll),
          la::singular_values(pencil), x0};
}

}  // namespace mfti::loewner
