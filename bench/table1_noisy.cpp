// Reproduces Table 1 of the paper: interpolation of noisy data on a
// 14-port power distribution network.
//
//   Test 1: 100 uniformly distributed frequency samples, -60 dB noise.
//   Test 2: 100 poorly distributed samples concentrated in the
//           high-frequency band, -60 dB noise.
//
// Rows: VF (10 iterations, n = 140 / 280), VFTI, MFTI-1 (t = 2 / 3),
// MFTI-2 (recursive). Columns: reduced order, CPU time (s), relative error
// ERR = ||err||_2 / sqrt(k) with err_i = ||H(j2pi f_i)-S(f_i)||_2 /
// ||S(f_i)||_2, evaluated on the same noisy samples (as in the paper).
//
// The measured data of the paper (INC-board PDN, [10]) is proprietary;
// the synthetic PDN of netgen::make_pdn_circuit (src/netgen/pdn.hpp)
// substitutes for it. Absolute numbers therefore differ; the qualitative
// ordering is the reproduction target.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/mfti.hpp"
#include "core/recursive_mfti.hpp"
#include "metrics/error.hpp"
#include "metrics/stopwatch.hpp"
#include "vf/vector_fitting.hpp"
#include "vfti/vfti.hpp"

namespace {

using namespace mfti;

struct Row {
  std::string name;
  std::size_t order;
  double seconds;
  double err;
};

Row run_vf(const sampling::SampleSet& data, std::size_t n) {
  vf::VectorFittingOptions opts;
  opts.num_poles = n;
  opts.iterations = 10;
  metrics::Stopwatch sw;
  const vf::VectorFittingResult res = vf::vector_fit(data, opts);
  const double t = sw.seconds();
  return {"VF(10 it) n=" + std::to_string(n), res.order, t,
          vf::model_error(res.model, data)};
}

Row run_vfti(const sampling::SampleSet& data) {
  vfti::VftiOptions opts;
  opts.realization = bench::table1_realization();
  metrics::Stopwatch sw;
  const vfti::VftiResult res = vfti::vfti_fit(data, opts);
  const double t = sw.seconds();
  return {"VFTI", res.order, t, metrics::model_error(res.model, data)};
}

Row run_mfti1(const sampling::SampleSet& data, std::size_t t_width) {
  core::MftiOptions opts;
  opts.data.uniform_t = t_width;
  opts.realization = bench::table1_realization();
  metrics::Stopwatch sw;
  const core::MftiResult res = core::mfti_fit(data, opts);
  const double t = sw.seconds();
  return {"MFTI-1 t=" + std::to_string(t_width), res.order, t,
          metrics::model_error(res.model, data)};
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
  const double t = sw.seconds();
  return {"MFTI-2 (recursive)", res.order, t,
          metrics::model_error(res.model, data)};
}

void run_test(const char* title, const sampling::SampleSet& data,
              io::CsvTable& csv, double test_id) {
  std::printf("\n--- %s ---\n", title);
  std::printf("%-22s  %14s  %10s  %14s\n", "algorithm", "reduced order",
              "time (s)", "relative error");
  std::vector<Row> rows;
  rows.push_back(run_vf(data, 140));
  rows.push_back(run_vf(data, 280));
  rows.push_back(run_vfti(data));
  rows.push_back(run_mfti1(data, 2));
  rows.push_back(run_mfti1(data, 3));
  rows.push_back(run_mfti2(data));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("%-22s  %14zu  %10.4f  %14.3e\n", r.name.c_str(), r.order,
                r.seconds, r.err);
    csv.add_row({test_id, static_cast<double>(i),
                 static_cast<double>(r.order), r.seconds, r.err});
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

  io::CsvTable csv({"test", "row", "reduced_order", "time_s", "err"});
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
