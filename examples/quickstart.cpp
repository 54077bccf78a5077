// Quickstart: macromodel a multi-port system from frequency samples with
// the unified API in ~20 lines of library calls.
//
//   1. get frequency-domain samples (here: synthesised from a random
//      stable system — in practice they come from a VNA or an EM solver),
//   2. run api::Fitter::fit with a strategy (MFTI here; swap the tag to
//      run recursive MFTI, VFTI or vector fitting on the same request),
//   3. check the Expected<FitReport> instead of catching exceptions,
//   4. serve the model through api::ModelHandle: the first query reduces
//      the pencil to Hessenberg–triangular form once, and every query
//      after it is one O(n^2 m) solve.
//
// Build & run:  ./examples/quickstart

#include <cstdio>

#include "api/api.hpp"
#include "metrics/error.hpp"
#include "sampling/grid.hpp"
#include "sampling/sampler.hpp"
#include "statespace/random_system.hpp"
#include "statespace/response.hpp"

int main() {
  using namespace mfti;

  // --- 1. the "measurement": a 4-port, order-16 black box ------------------
  la::Rng rng(1234);
  ss::RandomSystemOptions sys_opts;
  sys_opts.order = 16;
  sys_opts.num_outputs = 4;
  sys_opts.num_inputs = 4;
  sys_opts.rank_d = 4;
  const ss::DescriptorSystem black_box = ss::random_stable_mimo(sys_opts, rng);

  // Theorem 3.5: (order + rank D) / ports = (16 + 4) / 4 = 5 matrix samples
  // suffice. Take 6 for a safety margin.
  const sampling::SampleSet data =
      sampling::sample_system(black_box, sampling::log_grid(10.0, 1e5, 6));
  std::printf("sampled %zu scattering matrices (%zux%zu each)\n", data.size(),
              data.num_outputs(), data.num_inputs());

  // --- 2. fit ---------------------------------------------------------------
  const api::Fitter fitter;
  const auto report = fitter.fit(data, api::MftiStrategy{});
  if (!report) {  // bad input / cancellation / numerical breakdown
    std::printf("fit failed: %s\n", report.status().to_string().c_str());
    return 1;
  }

  // --- 3. inspect the report -------------------------------------------------
  std::printf("recovered model order: %zu (fitted in %.3f s)\n",
              report->order, report->seconds);
  std::printf("fit error on the samples (paper's ERR): %.2e\n",
              metrics::model_error(report->model, data));

  // The model generalizes beyond the sampled frequencies:
  const sampling::SampleSet dense =
      sampling::sample_system(black_box, sampling::log_grid(10.0, 1e5, 200));
  std::printf("error on a 200-point validation sweep:  %.2e\n",
              metrics::model_error(report->model, dense));

  // Inspect the recovered dynamics.
  const auto poles = ss::poles(report->model);
  std::size_t stable = 0;
  for (const auto& p : poles) stable += p.real() < 0.0 ? 1 : 0;
  std::printf("model has %zu finite poles (%zu stable)\n", poles.size(),
              stable);

  // --- 4. serve the model ----------------------------------------------------
  // ModelHandle answers response queries from any thread; it agrees with
  // the dense-LU reference ss::transfer_function to rounding.
  const api::ModelHandle handle(*report);
  const la::Complex s(0.0, 2.0e4);
  const la::CMat h = handle.evaluate(s);
  std::printf("|H(j2e4)| entry (0,0): %.4f\n", std::abs(h(0, 0)));
  const la::CMat ref = ss::transfer_function(report->model, s);
  std::printf("|H_handle - H_lu| entry (0,0): %.1e\n",
              std::abs(h(0, 0) - ref(0, 0)));
  return 0;
}
