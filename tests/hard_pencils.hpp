// Pencils that are hard for a frequency-response evaluator, shared by the
// parity tests of ss::BatchEvaluator (test_parallel.cpp) and
// api::ModelHandle (test_api.cpp). A pole–residue (modal) evaluation breaks
// down on each of them: a singular E has infinite eigenvalues, a Jordan
// block has no eigenvector basis, and a near-coincident pole pair has
// nearly parallel eigenvectors whose residues blow up and cancel. The
// resolvent itself is well conditioned on every grid below, so a
// backward-stable evaluator must match the dense-LU reference there.

#pragma once

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "linalg/random.hpp"
#include "netgen/mna.hpp"
#include "netgen/rlc.hpp"
#include "sampling/grid.hpp"
#include "statespace/descriptor.hpp"

namespace hard_pencils {

struct Case {
  std::string name;
  mfti::ss::DescriptorSystem sys;
  std::vector<double> freqs_hz;
};

/// E = P N and A = P J N for random orthogonal P and N: the pencil
/// (A, E) has the eigenstructure of J (defective blocks stay defective)
/// but every matrix is dense.
inline mfti::ss::DescriptorSystem dense_pencil(const mfti::la::Mat& j,
                                               std::size_t ports,
                                               std::uint64_t seed) {
  namespace la = mfti::la;
  la::Rng rng(seed);
  const std::size_t n = j.rows();
  const la::Mat p = la::random_orthonormal(n, n, rng);
  const la::Mat q = la::random_orthonormal(n, n, rng);
  return {p * q, p * j * q, la::random_matrix(n, ports, rng),
          la::random_matrix(ports, n, rng),
          la::random_matrix(ports, ports, rng)};
}

/// Every case with the frequency grid it is checked on.
inline std::vector<Case> cases() {
  namespace la = mfti::la;
  namespace sp = mfti::sampling;
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  std::vector<Case> out;

  // An MFTI fit of an RLC ladder: sigma_min(E) / sigma_max(E) ~ 1e-12.
  const auto ladder = mfti::netgen::rlc_ladder(8);
  const auto fit = mfti::api::Fitter().fit(mfti::netgen::sample_s_parameters(
      ladder, sp::log_grid(1e6, 1e9, 40)));
  if (!fit) throw std::runtime_error("ladder fit: " + fit.status().to_string());
  out.push_back({"singular E (MFTI fit of rlc_ladder(8))", fit->model,
                 sp::log_grid(1e6, 1e9, 25)});

  // A 2x2 Jordan block at -2 pi 10 kHz (a double pole) beside a damped
  // oscillation.
  {
    la::Mat j(4, 4);
    j(0, 0) = j(1, 1) = -kTwoPi * 1e4;
    j(0, 1) = kTwoPi * 1e4;
    j(2, 2) = j(3, 3) = -kTwoPi * 2e3;
    j(2, 3) = kTwoPi * 3e4;
    j(3, 2) = -kTwoPi * 3e4;
    out.push_back({"defective pencil (2x2 Jordan block)",
                   dense_pencil(j, 2, 7), sp::log_grid(10.0, 1e5, 25)});
  }

  // Two conjugate pairs 1e-9 apart (relative) at 10 kHz, damping 0.1, and
  // one real pole.
  {
    const double sigma = kTwoPi * 1e3;
    const double omega = kTwoPi * 1e4;
    const double split = 1.0 + 1e-9;
    la::Mat j(5, 5);
    j(0, 0) = j(1, 1) = -sigma;
    j(0, 1) = omega;
    j(1, 0) = -omega;
    j(2, 2) = j(3, 3) = -sigma * split;
    j(2, 3) = omega * split;
    j(3, 2) = -omega * split;
    j(4, 4) = -kTwoPi * 5e2;
    out.push_back({"near-coincident conjugate pole pair",
                   dense_pencil(j, 3, 11), sp::log_grid(10.0, 1e5, 25)});
  }
  return out;
}

/// Largest entry-wise difference relative to the largest entry of `ref`.
inline double relative_diff(const mfti::la::CMat& got,
                            const mfti::la::CMat& ref) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < ref.rows(); ++i) {
    for (std::size_t k = 0; k < ref.cols(); ++k) {
      diff = std::max(diff, std::abs(got(i, k) - ref(i, k)));
      scale = std::max(scale, std::abs(ref(i, k)));
    }
  }
  return diff / scale;
}

/// A 1-state system with its pole at s = -2: `(sE - A)` is exactly zero
/// there.
inline mfti::ss::DescriptorSystem one_pole_at_minus_two() {
  using mfti::la::Mat;
  return {Mat{{1.0}}, Mat{{-2.0}}, Mat{{1.0}}, Mat{{1.0}}, Mat{{0.0}}};
}

}  // namespace hard_pencils
