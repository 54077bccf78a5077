// Ablation D: the frequency-scaling design choice inside the realization
// (loewner::RealizationOptions::frequency_scaling). The Loewner and
// shifted-Loewner matrices differ in scale by ~2 pi f_max; without
// balancing them the two-sided stacked SVDs are dominated by sLL and the
// order detection degrades. This bench quantifies that on the Example-1
// setup at several sample counts.

#include <cstdio>

#include "bench_common.hpp"
#include "core/mfti.hpp"
#include "metrics/error.hpp"

int main() {
  using namespace mfti;
  std::printf("=== Ablation: frequency scaling in the Loewner realization "
              "===\n");
  const ss::DescriptorSystem sys = bench::example1_system();
  const sampling::SampleSet probe = sampling::sample_system(
      sys, sampling::log_grid(bench::kExample1FMin, bench::kExample1FMax,
                              61));

  std::printf("%8s  %10s  %14s  %10s  %14s\n", "samples", "order(on)",
              "ERR(on)", "order(off)", "ERR(off)");
  io::CsvTable csv({"samples", "order_on", "err_on", "order_off", "err_off"});
  for (std::size_t k : {6, 8, 10}) {
    const auto data = sampling::sample_system(
        sys,
        sampling::log_grid(bench::kExample1FMin, bench::kExample1FMax, k));
    core::MftiOptions on;
    on.realization.frequency_scaling = true;
    core::MftiOptions off;
    off.realization.frequency_scaling = false;
    const auto fit_on = core::mfti_fit(data, on);
    const auto fit_off = core::mfti_fit(data, off);
    const double err_on = metrics::model_error(fit_on.model, probe);
    const double err_off = metrics::model_error(fit_off.model, probe);
    std::printf("%8zu  %10zu  %14.3e  %10zu  %14.3e\n", k, fit_on.order,
                err_on, fit_off.order, err_off);
    csv.add_row({static_cast<double>(k), static_cast<double>(fit_on.order),
                 err_on, static_cast<double>(fit_off.order), err_off});
  }
  // Noisy, tolerance-truncated case (Table-1 conditions): here the
  // singular-value ordering of the stacked pencil decides which directions
  // survive, so the balance can matter.
  const netgen::Circuit pdn = bench::example2_pdn_circuit();
  const sampling::SampleSet noisy = bench::table1_test1_data(pdn);
  std::printf("\nnoisy PDN (Table-1 Test-1 data, t = 3, tol 1e-2):\n");
  for (const bool scaling : {true, false}) {
    core::MftiOptions opts;
    opts.data.uniform_t = 3;
    opts.realization = bench::table1_realization();
    opts.realization.frequency_scaling = scaling;
    const auto fit = core::mfti_fit(noisy, opts);
    const double err = metrics::model_error(fit.model, noisy);
    std::printf("  scaling %-3s: order %3zu, ERR %.3e\n",
                scaling ? "on" : "off", fit.order, err);
    csv.add_row({scaling ? 200.0 : 201.0, static_cast<double>(fit.order),
                 err, 0.0, 0.0});
  }
  bench::write_csv(csv, "ablation_scaling.csv");
  std::printf("\nReading: on clean data with a sharp rank gap the balance "
              "is immaterial (the gap dominates either way); on noisy "
              "tolerance-truncated data it changes which subspace is kept. "
              "It is cheap, so it stays on by default.\n");
  return 0;
}
