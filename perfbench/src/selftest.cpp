/// \file selftest.cpp
/// \brief The benchmark's own test (`python3 perfbench/run.py --self-test`).
///
/// - The output check catches a perturbed value, a wrong-version claim and
///   an unknown version, and accepts a value that differs from the
///   reference only at the level a non-LU kernel would.
/// - The structural check run on every response rejects a wrong shape.
/// - Fit-span fidelity: the traced split of an MFTI fit gives a model
///   equal (`==`) to `api::Fitter::fit` on four Example-2 refits.

#include <cstdio>
#include <numbers>
#include <string>

#include "api/api.hpp"
#include "netgen/rlc.hpp"
#include "perfbench.hpp"
#include "statespace/response.hpp"
#include "workload.hpp"

namespace {

namespace la = mfti::la;
int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

/// An eval response carrying the values of `system`, the first entry of
/// the first value scaled by `1 + perturb`.
std::string response(const mfti::ss::DescriptorSystem& system,
                     std::uint64_t version, const std::vector<double>& freqs,
                     double perturb) {
  std::vector<la::CMat> values;
  for (const double f : freqs) {
    values.push_back(mfti::ss::transfer_function(
        system, la::Complex(0.0, 2.0 * std::numbers::pi * f)));
  }
  values[0](0, 0) *= 1.0 + perturb;
  return perfbench::eval_response_body("ic", version, freqs.size(), values);
}

void checker_tests() {
  const mfti::ss::DescriptorSystem v1 = mfti::netgen::rlc_ladder(6);
  const mfti::ss::DescriptorSystem v2 = mfti::netgen::rlc_ladder(7);
  perfbench::ResponseChecker checker;
  checker.add_version("ic", 1, v1);
  checker.add_version("ic", 2, v2);
  const std::vector<double> freqs = {1e7, 3e8, 2e9, 1.5e10};

  expect(checker.check(response(v1, 1, freqs, 0.0), "ic", freqs).empty(),
         "a correct response passes");
  expect(checker.check(response(v1, 1, freqs, 3e-10), "ic", freqs).empty(),
         "a value off by 3e-10 (a non-LU kernel) passes: not bitwise");
  expect(!checker.check(response(v1, 1, freqs, 1e-5), "ic", freqs).empty(),
         "a value perturbed by 1e-5 is caught");
  expect(!checker.check(response(v1, 2, freqs, 0.0), "ic", freqs).empty(),
         "values of version 1 claimed as version 2 are caught");
  expect(!checker.check(response(v1, 3, freqs, 0.0), "ic", freqs).empty(),
         "an unpublished version is caught");
  expect(!checker.check(response(v1, 1, freqs, 0.0), "pdn", freqs).empty(),
         "a response for another model is caught");

  const std::string ok = response(v1, 1, freqs, 0.0);
  expect(perfbench::quick_check(ok, freqs.size(), 2, 2) == 1,
         "the structural check reads the claimed version");
  expect(perfbench::quick_check(ok, freqs.size() + 1, 2, 2) < 0,
         "the structural check catches a missing value");
  expect(perfbench::quick_check(ok, freqs.size(), 14, 14) < 0,
         "the structural check catches a wrong port count");
}

void fidelity_tests() {
  for (std::size_t k = 0; k < 4; ++k) {
    const mfti::sampling::SampleSet samples =
        perfbench::pdn_measurement(perfbench::refit_noise_seed(1, k));
    const auto fit = mfti::api::Fitter().fit(
        samples, mfti::api::MftiStrategy{perfbench::pdn_fit_options()});
    const perfbench::SplitFit split =
        perfbench::split_fit(samples, perfbench::pdn_fit_options());
    const std::string what = "refit " + std::to_string(k) +
                             ": traced split == api::Fitter::fit (order " +
                             std::to_string(split.order) + ")";
    expect(fit.has_value() && split.model == fit->model &&
               split.order == fit->order,
           what.c_str());
  }
}

}  // namespace

int main() {
  checker_tests();
  fidelity_tests();
  std::printf("selftest: %s\n", g_failures == 0 ? "all passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
