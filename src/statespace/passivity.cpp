#include "statespace/passivity.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "linalg/norms.hpp"
#include "statespace/response.hpp"

namespace mfti::ss {

namespace {

Real sigma_max_at(const BatchEvaluator& model, Real f_hz) {
  return la::two_norm(
      model.evaluate(Complex(0.0, 2.0 * std::numbers::pi * f_hz)));
}

// Golden-section search for the maximum of sigma_max on [lo, hi] (log axis).
std::pair<Real, Real> refine_maximum(const BatchEvaluator& model, Real lo,
                                     Real hi, int iterations) {
  const Real phi = 0.5 * (std::sqrt(5.0) - 1.0);
  Real a = std::log(lo);
  Real b = std::log(hi);
  Real x1 = b - phi * (b - a);
  Real x2 = a + phi * (b - a);
  Real f1 = sigma_max_at(model, std::exp(x1));
  Real f2 = sigma_max_at(model, std::exp(x2));
  for (int it = 0; it < iterations; ++it) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + phi * (b - a);
      f2 = sigma_max_at(model, std::exp(x2));
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - phi * (b - a);
      f1 = sigma_max_at(model, std::exp(x1));
    }
  }
  const Real xm = 0.5 * (a + b);
  return {std::exp(xm), sigma_max_at(model, std::exp(xm))};
}

}  // namespace

std::vector<PassivityViolation> scattering_passivity_violations(
    const DescriptorSystem& sys, Real f_lo_hz, Real f_hi_hz,
    const PassivityScanOptions& opts) {
  sys.validate();
  if (!(f_lo_hz > 0.0) || !(f_hi_hz > f_lo_hz)) {
    throw std::invalid_argument(
        "scattering_passivity_violations: need 0 < f_lo < f_hi");
  }
  if (opts.grid_points < 2) {
    throw std::invalid_argument(
        "scattering_passivity_violations: need at least 2 grid points");
  }

  // One Hessenberg–triangular reduction serves the whole grid and every
  // refinement.
  const BatchEvaluator evaluator(sys);
  const Real llo = std::log(f_lo_hz);
  const Real lhi = std::log(f_hi_hz);
  const std::size_t n = opts.grid_points;
  std::vector<Real> freq(n);
  std::vector<Real> norm(n);
  for (std::size_t i = 0; i < n; ++i) {
    freq[i] = std::exp(llo + (lhi - llo) * static_cast<Real>(i) /
                                 static_cast<Real>(n - 1));
    norm[i] = sigma_max_at(evaluator, freq[i]);
  }

  const Real bound = 1.0 + opts.tolerance;
  std::vector<PassivityViolation> out;
  std::size_t i = 0;
  while (i < n) {
    if (norm[i] <= bound) {
      ++i;
      continue;
    }
    // Extend the violating run; bracket it one grid cell wider for the
    // refinement so maxima near run edges are not missed.
    std::size_t j = i;
    while (j + 1 < n && norm[j + 1] > bound) ++j;
    const Real lo = freq[i > 0 ? i - 1 : i];
    const Real hi = freq[j + 1 < n ? j + 1 : j];
    const auto [worst_f, worst] =
        refine_maximum(evaluator, lo, hi, opts.refine_iterations);
    out.push_back({freq[i], freq[j], worst_f, worst});
    i = j + 1;
  }
  return out;
}

bool is_scattering_passive(const DescriptorSystem& sys, Real f_lo_hz,
                           Real f_hi_hz, const PassivityScanOptions& opts) {
  return scattering_passivity_violations(sys, f_lo_hz, f_hi_hz, opts).empty();
}

}  // namespace mfti::ss
