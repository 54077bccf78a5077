// Ablation C: accuracy of MFTI vs VFTI as the measurement
// noise level sweeps from 1e-4 to 1e-1, at a fixed sample budget on an
// Example-1-style system (scaled down so VFTI has enough samples to be in
// its working regime — this isolates the noise robustness claim from the
// sample-efficiency claim).

#include <cstdio>

#include "bench_common.hpp"
#include "core/mfti.hpp"
#include "metrics/error.hpp"
#include "vfti/vfti.hpp"

int main() {
  using namespace mfti;
  std::printf("=== Ablation: noise robustness, MFTI vs VFTI ===\n");

  la::Rng rng(424242);
  ss::RandomSystemOptions sopts;
  sopts.order = 40;
  sopts.num_outputs = 8;
  sopts.num_inputs = 8;
  sopts.rank_d = 8;
  const ss::DescriptorSystem sys = ss::random_stable_mimo(sopts, rng);
  const auto grid = sampling::log_grid(10.0, 1e5, 60);  // 60 >> 48 samples
  const sampling::SampleSet clean = sampling::sample_system(sys, grid);

  std::printf("system: order 40, 8 ports, rank(D)=8; 60 samples\n");
  std::printf("%12s  %14s  %14s\n", "noise", "ERR MFTI", "ERR VFTI");
  io::CsvTable csv({"noise", "err_mfti", "err_vfti"});
  for (const double noise : {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1}) {
    la::Rng nrng(99);
    const sampling::SampleSet data = sampling::add_noise(clean, noise, nrng);

    core::MftiOptions mopts;
    mopts.data.uniform_t = 8;
    const double err_m = metrics::model_error(
        core::mfti_fit(data, mopts).model, clean);
    const double err_v = metrics::model_error(
        vfti::vfti_fit(data).model, clean);
    std::printf("%12.1e  %14.3e  %14.3e\n", noise, err_m, err_v);
    csv.add_row({noise, err_m, err_v});
  }
  bench::write_csv(csv, "ablation_noise.csv");
  std::printf("\nReading: both degrade with noise (errors measured against "
              "the clean response); MFTI stays ahead because each sample "
              "contributes min(m,p) tangential rows of consistent data.\n");
  return 0;
}
