/// \file random.hpp
/// \brief Seeded random matrix generation.
///
/// All stochastic pieces of the library (tangential directions, synthetic
/// systems, measurement noise) draw from an explicitly seeded engine so that
/// every bench and test run is bit-reproducible.

#pragma once

#include <cstdint>
#include <random>

#include "linalg/matrix.hpp"

namespace mfti::la {

/// Random number generator handle passed around explicitly (no global
/// state). A thin wrapper so call sites do not depend on the engine type.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Standard normal variate.
  Real normal() { return normal_(engine_); }

  /// Uniform variate in [lo, hi).
  Real uniform(Real lo = 0.0, Real hi = 1.0) {
    return lo + (hi - lo) * uniform_(engine_);
  }

  /// Uniform integer in [0, n).
  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::normal_distribution<Real> normal_{0.0, 1.0};
  std::uniform_real_distribution<Real> uniform_{0.0, 1.0};
};

/// Matrix with i.i.d. standard normal entries.
Mat random_matrix(std::size_t rows, std::size_t cols, Rng& rng);

/// Complex matrix with i.i.d. standard complex normal entries
/// (real and imaginary parts each N(0, 1/2) so E|x|^2 = 1).
CMat random_complex_matrix(std::size_t rows, std::size_t cols, Rng& rng);

/// Random real matrix with orthonormal columns (QR of a Gaussian matrix);
/// requires rows >= cols.
Mat random_orthonormal(std::size_t rows, std::size_t cols, Rng& rng);

}  // namespace mfti::la
