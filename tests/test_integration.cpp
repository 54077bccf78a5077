// End-to-end integration tests: the full pipelines a user would run,
// crossing module boundaries (netgen -> sampling -> api -> statespace
// analysis -> io) and checking physical consistency of the results. All
// fits go through the unified `api::Fitter` facade — the per-algorithm
// entry points keep their own focused suites (test_core_*, test_vf*).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "api/api.hpp"
#include "core/mfti.hpp"
#include "core/recursive_mfti.hpp"
#include "io/touchstone.hpp"
#include "linalg/norms.hpp"
#include "metrics/error.hpp"
#include "netgen/pdn.hpp"
#include "netgen/rlc.hpp"
#include "sampling/grid.hpp"
#include "sampling/noise.hpp"
#include "sampling/sampler.hpp"
#include "statespace/passivity.hpp"
#include "statespace/pole_residue.hpp"
#include "statespace/random_system.hpp"
#include "statespace/response.hpp"
#include "statespace/simulate.hpp"
#include "vf/vector_fitting.hpp"
#include "vfti/vfti.hpp"

namespace api = mfti::api;
namespace la = mfti::la;
namespace ss = mfti::ss;
namespace sp = mfti::sampling;
namespace ng = mfti::netgen;
using la::CMat;
using la::Complex;
using la::Mat;

namespace {

// Run a fit through the facade and unwrap, failing the test on error.
api::FitReport fit_ok(const sp::SampleSet& samples,
                      api::Strategy strategy = api::MftiStrategy{}) {
  auto report = api::Fitter().fit(samples, std::move(strategy));
  EXPECT_TRUE(report) << report.status().to_string();
  return std::move(report.value());
}

}  // namespace

TEST(Integration, MftiModelRecoversTruePoles) {
  // Fit from samples, then check the *identified dynamics*: every pole of
  // the ground truth appears among the model's poles.
  la::Rng rng(901);
  ss::RandomSystemOptions opts;
  opts.order = 10;
  opts.num_outputs = 3;
  opts.num_inputs = 3;
  opts.rank_d = 3;
  const ss::DescriptorSystem truth = ss::random_stable_mimo(opts, rng);
  const sp::SampleSet data =
      sp::sample_system(truth, sp::log_grid(10.0, 1e5, 10));
  const api::FitReport fit = fit_ok(data);

  const auto true_poles = ss::poles(truth);
  const auto model_poles = ss::poles(fit.model);
  for (const Complex& p : true_poles) {
    double best = 1e300;
    for (const Complex& q : model_poles) {
      best = std::min(best, std::abs(p - q) / std::abs(p));
    }
    EXPECT_LT(best, 1e-6) << "true pole " << p.real() << "+" << p.imag()
                          << "j not identified";
  }
}

TEST(Integration, MftiModelResiduesMatchTruth) {
  // Beyond poles: the modal decompositions of truth and model agree.
  la::Rng rng(902);
  ss::RandomSystemOptions opts;
  opts.order = 6;
  opts.num_outputs = 2;
  opts.num_inputs = 2;
  opts.rank_d = 2;
  const ss::DescriptorSystem truth = ss::random_stable_mimo(opts, rng);
  const sp::SampleSet data =
      sp::sample_system(truth, sp::log_grid(10.0, 1e5, 8));
  const api::FitReport fit = fit_ok(data);

  const ss::PoleResidueModel pr_true =
      ss::pole_residue_decomposition(truth);
  const ss::PoleResidueModel pr_model =
      ss::pole_residue_decomposition(fit.model);
  for (std::size_t q = 0; q < pr_true.poles.size(); ++q) {
    // Match by pole location.
    std::size_t best = 0;
    double dist = 1e300;
    for (std::size_t r = 0; r < pr_model.poles.size(); ++r) {
      const double d = std::abs(pr_model.poles[r] - pr_true.poles[q]);
      if (d < dist) {
        dist = d;
        best = r;
      }
    }
    EXPECT_TRUE(la::approx_equal(pr_model.residues[best],
                                 pr_true.residues[q], 1e-4, 1e-6));
  }
}

TEST(Integration, MacromodelTransientMatchesOriginal) {
  // Frequency-domain fit -> time-domain agreement (the crosstalk_sim
  // example as a hard assertion).
  const ss::DescriptorSystem bus = ng::rlc_multidrop(10, 3);
  const sp::SampleSet data =
      ng::sample_s_parameters(bus, sp::log_grid(1e7, 1e10, 30));
  // Note: fit the impedance system directly (not S) to keep this test
  // entirely in one parameter domain.
  const sp::SampleSet zdata =
      sp::sample_system(bus, sp::log_grid(1e7, 1e10, 30));
  const api::FitReport fit = fit_ok(zdata);
  (void)data;

  auto edge = [](double t) {
    std::vector<double> u(3, 0.0);
    u[0] = t >= 1e-10 ? 1.0 : t / 1e-10;
    return u;
  };
  const ss::Simulation ref = ss::simulate(bus, edge, 5e-12, 2e-9);
  const ss::Simulation mac = ss::simulate(fit.model, edge, 5e-12, 2e-9);
  ASSERT_EQ(ref.steps(), mac.steps());
  double worst = 0.0, scale = 0.0;
  for (std::size_t k = 0; k < ref.steps(); ++k) {
    for (std::size_t j = 0; j < 3; ++j) {
      worst = std::max(worst,
                       std::abs(ref.outputs[k][j] - mac.outputs[k][j]));
      scale = std::max(scale, std::abs(ref.outputs[k][j]));
    }
  }
  EXPECT_LT(worst, 1e-4 * scale);
}

TEST(Integration, PdnPipelineCleanDataHighAccuracy) {
  la::Rng rng(903);
  ng::PdnOptions board;
  board.grid_nx = 4;
  board.grid_ny = 4;
  board.num_ports = 6;
  board.num_decaps = 3;
  const ss::DescriptorSystem pdn = ng::make_pdn(board, rng);
  const sp::SampleSet data =
      ng::sample_s_parameters(pdn, sp::linear_grid(1e6, 1e9, 60));
  const api::FitReport fit = fit_ok(data);
  EXPECT_LT(mfti::metrics::model_error(fit.model, data), 1e-6);
  // Model of passive data fitted to machine precision stays passive on the
  // fitted band.
  EXPECT_TRUE(ss::is_scattering_passive(fit.model, 1e6, 1e9));
}

TEST(Integration, TouchstoneRoundTripThroughFit) {
  // data -> .sNp -> read -> fit -> response ~ original data.
  const ss::DescriptorSystem bus = ng::rlc_multidrop(12, 3);
  const auto freqs = sp::log_grid(1e7, 1e10, 36);
  const sp::SampleSet data = ng::sample_s_parameters(bus, freqs);
  std::stringstream file;
  mfti::io::write_touchstone(file, data);
  const mfti::io::TouchstoneData loaded =
      mfti::io::read_touchstone(file, 3);
  const api::FitReport fit = fit_ok(loaded.samples);
  // The writer emits 12 significant digits, so the fit is exact only to
  // the file's precision (~1e-8 relative after the Loewner conditioning).
  EXPECT_LT(mfti::metrics::model_error(fit.model, data), 1e-6);
  EXPECT_LT(mfti::metrics::model_error(fit.model, loaded.samples), 1e-6);
}

TEST(Integration, RecursiveConsumingAllDataMatchesBatch) {
  // When Algorithm 2 exhausts the pool, its final model is built from the
  // same tangential data as Algorithm 1 (different unit order) and must be
  // equally accurate.
  la::Rng rng(904);
  ss::RandomSystemOptions opts;
  opts.order = 10;
  opts.num_outputs = 2;
  opts.num_inputs = 2;
  const ss::DescriptorSystem truth = ss::random_stable_mimo(opts, rng);
  const sp::SampleSet data =
      sp::sample_system(truth, sp::log_grid(10.0, 1e5, 12));

  mfti::core::MftiOptions batch;
  batch.data.uniform_t = 2;
  batch.data.seed = 42;
  const auto fit1 = fit_ok(data, api::MftiStrategy{batch});

  mfti::core::RecursiveMftiOptions rec;
  rec.data.uniform_t = 2;
  rec.data.seed = 42;
  rec.threshold = -1.0;  // force full consumption
  const auto fit2 = fit_ok(data, api::RecursiveMftiStrategy{rec});

  const sp::SampleSet probe =
      sp::sample_system(truth, sp::log_grid(10.0, 1e5, 37));
  const double e1 = mfti::metrics::model_error(fit1.model, probe);
  const double e2 = mfti::metrics::model_error(fit2.model, probe);
  EXPECT_LT(e1, 1e-7);
  EXPECT_LT(e2, 1e-7);
  EXPECT_EQ(fit1.order, fit2.order);
}

TEST(Integration, AllThreeMethodsOnAmpleCleanData) {
  // With generous clean data every implemented method must deliver; this
  // pins down cross-method consistency (catching systematic biases).
  la::Rng rng(905);
  ss::RandomSystemOptions opts;
  opts.order = 8;
  opts.num_outputs = 2;
  opts.num_inputs = 2;
  opts.rank_d = 2;
  const ss::DescriptorSystem truth = ss::random_stable_mimo(opts, rng);
  const sp::SampleSet data =
      sp::sample_system(truth, sp::log_grid(10.0, 1e5, 40));

  // One request, four algorithms: only the strategy tag changes.
  const auto mfti_report = fit_ok(data, api::MftiStrategy{});
  EXPECT_LT(mfti::metrics::model_error(mfti_report.model, data), 1e-8);

  const auto vfti_report = fit_ok(data, api::VftiStrategy{});
  EXPECT_LT(mfti::metrics::model_error(vfti_report.model, data), 1e-6);

  mfti::vf::VectorFittingOptions vf_opts;
  vf_opts.num_poles = 8;
  vf_opts.iterations = 12;
  const auto vf_report = fit_ok(data, api::VectorFittingStrategy{vf_opts});
  ASSERT_TRUE(vf_report.vector_fitting.has_value());
  const auto& vf_model = vf_report.vector_fitting->pole_residue;
  EXPECT_LT(mfti::metrics::model_error(vf_model, data), 1e-5);
}

TEST(Integration, SkinEffectDataFitsToApproximationFloor) {
  // Non-rational data: the fit error saturates at a floor set by the
  // rational-approximation error, not at machine precision — but the model
  // is still accurate to ~1e-3 with ample data.
  la::Rng rng(906);
  ng::PdnOptions board;
  board.grid_nx = 4;
  board.grid_ny = 4;
  board.num_ports = 5;
  board.num_decaps = 2;
  const ng::Circuit ckt = ng::make_pdn_circuit(board, rng);
  const sp::SampleSet data = ng::sample_s_parameters(
      ckt, sp::linear_grid(1e6, 1e9, 80), 50.0, /*skin_f_hz=*/1e7);
  mfti::core::MftiOptions opts;
  opts.realization.selection = mfti::loewner::OrderSelection::Tolerance;
  opts.realization.rank_tol = 1e-7;
  const auto fit = fit_ok(data, api::MftiStrategy{opts});
  const double err = mfti::metrics::model_error(fit.model, data);
  EXPECT_LT(err, 1e-2);   // good engineering fit
  EXPECT_GT(err, 1e-12);  // but not exact: the data is not rational
}
