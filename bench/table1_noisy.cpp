// Reproduces Table 1 of the paper: interpolation of noisy data on a
// 14-port power distribution network.
//
//   Test 1: 100 uniformly distributed frequency samples, -60 dB noise.
//   Test 2: 100 poorly distributed samples concentrated in the
//           high-frequency band, -60 dB noise.
//
// Rows: VF (10 iterations, n = 140 / 280), VFTI, MFTI-1 (t = 2 / 3),
// MFTI-2 (recursive). Columns: pole count, state order, CPU time (s),
// relative error ERR = ||err||_2 / sqrt(k) with
// err_i = ||H(j2pi f_i)-S(f_i)||_2 / ||S(f_i)||_2, evaluated on the same
// noisy samples (as in the paper).
//
// The two sizes differ: VF's block realization has one state per pole per
// input (140 poles are 1960 states on 14 ports), and an MFTI pencil's
// infinite eigenvalues are states but not poles.
//
// The VF n = 280 row is not vector fitting. With 100 samples, 2k = 200 <
// n + 1, so the sigma system is unidentifiable
// (`VectorFittingResult::sigma_identifiable`): no relocation sweep runs and
// the row only fits residues on the 280 starting poles. The row is labelled
// "residues only".
//
// The measured data of the paper (INC-board PDN, [10]) is proprietary;
// the synthetic PDN of netgen::make_pdn_circuit (src/netgen/pdn.hpp)
// substitutes for it. Absolute numbers therefore differ; the qualitative
// ordering is the reproduction target.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/mfti.hpp"
#include "core/recursive_mfti.hpp"
#include "metrics/error.hpp"
#include "metrics/stopwatch.hpp"
#include "statespace/response.hpp"
#include "vf/vector_fitting.hpp"
#include "vfti/vfti.hpp"

namespace {

using namespace mfti;

struct Row {
  std::string name;
  std::size_t poles;
  std::size_t order;  ///< state order
  double seconds;
  double err;
};

// A descriptor model's row: its finite poles, its state order and ERR.
Row loewner_row(std::string name, const ss::DescriptorSystem& model,
                double seconds, const sampling::SampleSet& data) {
  return {std::move(name), ss::poles(model).size(), model.order(), seconds,
          metrics::model_error(model, data)};
}

Row run_vf(const sampling::SampleSet& data, std::size_t n) {
  vf::VectorFittingOptions opts;
  opts.num_poles = n;
  opts.iterations = 10;
  metrics::Stopwatch sw;
  const vf::VectorFittingResult res = vf::vector_fit(data, opts);
  const double t = sw.seconds();
  const std::string label =
      res.sigma_identifiable ? "VF(10 it) n=" : "VF residues only n=";
  return {label + std::to_string(n), res.model.num_poles(),
          res.model.to_state_space().order(), t,
          metrics::model_error(res.model, data)};
}

Row run_vfti(const sampling::SampleSet& data) {
  vfti::VftiOptions opts;
  opts.realization = bench::table1_realization();
  metrics::Stopwatch sw;
  const vfti::VftiResult res = vfti::vfti_fit(data, opts);
  return loewner_row("VFTI", res.model, sw.seconds(), data);
}

Row run_mfti1(const sampling::SampleSet& data, std::size_t t_width) {
  core::MftiOptions opts;
  opts.data.uniform_t = t_width;
  opts.realization = bench::table1_realization();
  metrics::Stopwatch sw;
  const core::MftiResult res = core::mfti_fit(data, opts);
  return loewner_row("MFTI-1 t=" + std::to_string(t_width), res.model,
                     sw.seconds(), data);
}

Row run_mfti2(const sampling::SampleSet& data) {
  core::RecursiveMftiOptions opts;
  opts.data.uniform_t = 2;
  opts.units_per_iteration = 5;
  // Scale-free stopping rule, a deviation from the paper's absolute errors
  // (RecursiveMftiOptions::relative_error): Th becomes a fraction of each
  // unit's data, independent of the synthetic PDN's impedance scale. Stop
  // when the remaining samples are tangentially matched to 5%.
  opts.relative_error = true;
  opts.selection = core::SelectionRule::WorstFirst;
  opts.threshold = 0.05;
  opts.realization = bench::table1_realization();
  metrics::Stopwatch sw;
  const core::RecursiveMftiResult res = core::recursive_mfti_fit(data, opts);
  return loewner_row("MFTI-2 (recursive)", res.model, sw.seconds(), data);
}

void run_test(const char* title, const sampling::SampleSet& data,
              io::CsvTable& csv, double test_id) {
  std::printf("\n--- %s ---\n", title);
  std::printf("%-22s  %6s  %11s  %10s  %14s\n", "algorithm", "poles",
              "state order", "time (s)", "relative error");
  std::vector<Row> rows;
  rows.push_back(run_vf(data, 140));
  rows.push_back(run_vf(data, 280));
  rows.push_back(run_vfti(data));
  rows.push_back(run_mfti1(data, 2));
  rows.push_back(run_mfti1(data, 3));
  rows.push_back(run_mfti2(data));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("%-22s  %6zu  %11zu  %10.4f  %14.3e\n", r.name.c_str(),
                r.poles, r.order, r.seconds, r.err);
    csv.add_row({test_id, static_cast<double>(i),
                 static_cast<double>(r.poles), static_cast<double>(r.order),
                 r.seconds, r.err});
  }
}

}  // namespace

int main() {
  std::printf("=== Table 1: interpolation of noisy data (14-port PDN) ===\n");
  const netgen::Circuit pdn = bench::example2_pdn_circuit();
  std::printf("synthetic PDN: LTI order %zu, %zu ports, band %.0e..%.0e Hz, "
              "skin-effect losses above %.0e Hz, -60 dB measurement noise\n",
              bench::example2_pdn().order(), pdn.num_ports(),
              bench::kPdnFMin, bench::kPdnFMax, bench::kPdnSkinHz);

  io::CsvTable csv({"test", "row", "poles", "state_order", "time_s", "err"});
  run_test("Test 1: 100 uniform samples", bench::table1_test1_data(pdn), csv,
           1.0);
  run_test("Test 2: 100 samples clustered at high frequency",
           bench::table1_test2_data(pdn), csv, 2.0);
  bench::write_csv(csv, "table1.csv");

  std::printf(
      "\nPaper expectation (qualitative): MFTI-1 most accurate (t=3 better "
      "than t=2),\nMFTI-2 close behind at lower order and near-VFTI run "
      "time, VFTI less accurate\n(especially on Test 2), VF slowest and "
      "less accurate than MFTI.\n");
  return 0;
}
