// The paper's claims as assertions (ctest labels `unit;paper`):
//
//   * Fig. 1 — on Example 1 (order 150, 30 x 30 ports, rank D = 30, eight
//     samples) the MFTI Loewner matrices drop sharply at the order for LL
//     and at order + rank D for sLL and x0 LL - sLL, while the 8 x 8 VFTI
//     matrices show no drop at all.
//   * Example 2 — the synthetic 14-port PDN that stands in for the paper's
//     measured board, fitted as the benchmark fits it (120 noisy samples,
//     t = 3, rank_tol 1e-2): the selected order and the held-out error.
//     This pins the order selection, so a faster SVD or transform that
//     moves the fit shows up here.

#include <gtest/gtest.h>

#include <vector>

#include "api/api.hpp"
#include "linalg/svd.hpp"
#include "loewner/realization.hpp"
#include "loewner/tangential.hpp"
#include "metrics/error.hpp"
#include "netgen/mna.hpp"
#include "netgen/pdn.hpp"
#include "sampling/grid.hpp"
#include "sampling/noise.hpp"
#include "sampling/sampler.hpp"
#include "statespace/random_system.hpp"

namespace api = mfti::api;
namespace la = mfti::la;
namespace loewner = mfti::loewner;
namespace netgen = mfti::netgen;
namespace sampling = mfti::sampling;
namespace ss = mfti::ss;

namespace {

struct Ranks {
  std::size_t loewner;
  std::size_t shifted;
  std::size_t pencil;
  std::size_t size;
};

Ranks largest_gap_ranks(const loewner::TangentialData& data) {
  const loewner::PencilSingularValues sv =
      loewner::pencil_singular_values(data);
  return {la::rank_by_largest_gap(sv.loewner),
          la::rank_by_largest_gap(sv.shifted),
          la::rank_by_largest_gap(sv.pencil), sv.loewner.size()};
}

/// Example 1 (as `bench/bench_common.hpp` builds it), sampled at 8 points.
sampling::SampleSet example1_samples() {
  la::Rng rng(20100613);
  ss::RandomSystemOptions opts;
  opts.order = 150;
  opts.num_outputs = 30;
  opts.num_inputs = 30;
  opts.rank_d = 30;
  opts.f_min_hz = 10.0;
  opts.f_max_hz = 1e5;
  const ss::DescriptorSystem sys = ss::random_stable_mimo(opts, rng);
  return sampling::sample_system(sys, sampling::log_grid(10.0, 1e5, 8));
}

}  // namespace

TEST(PaperFig1, MftiDropsAtOrderAndOrderPlusRankD) {
  const loewner::TangentialData mfti =
      loewner::build_tangential_data(example1_samples(), {});
  const Ranks r = largest_gap_ranks(mfti);
  EXPECT_EQ(r.size, 240u);
  EXPECT_EQ(r.loewner, 150u);
  EXPECT_EQ(r.shifted, 180u);
  EXPECT_EQ(r.pencil, 180u);
}

TEST(PaperFig1, VftiShowsNoDrop) {
  loewner::TangentialOptions opts;
  opts.uniform_t = 1;
  opts.directions = loewner::DirectionKind::Cyclic;
  const loewner::TangentialData vfti =
      loewner::build_tangential_data(example1_samples(), opts);
  const Ranks r = largest_gap_ranks(vfti);
  // rank_by_largest_gap returns the full length when no drop exists.
  EXPECT_EQ(r.size, 8u);
  EXPECT_EQ(r.loewner, 8u);
  EXPECT_EQ(r.shifted, 8u);
  EXPECT_EQ(r.pencil, 8u);
}

TEST(PaperExample2, PdnFitKeepsOrderAndHeldOutError) {
  la::Rng board_rng(2024);
  const netgen::Circuit board =
      netgen::make_pdn_circuit(netgen::PdnOptions{}, board_rng);
  const std::vector<double> freqs = sampling::linear_grid(1e6, 1e9, 120);
  std::vector<double> mid;
  for (std::size_t i = 0; i + 1 < freqs.size(); ++i) {
    mid.push_back(0.5 * (freqs[i] + freqs[i + 1]));
  }
  la::Rng noise(99);
  const sampling::SampleSet measured = sampling::add_noise(
      netgen::sample_s_parameters(board, freqs, 50.0, 1e7), 1e-3, noise);
  const sampling::SampleSet held_out =
      netgen::sample_s_parameters(board, mid, 50.0, 1e7);

  mfti::core::MftiOptions opts;
  opts.data.uniform_t = 3;
  opts.realization.selection = loewner::OrderSelection::Tolerance;
  opts.realization.rank_tol = 1e-2;
  const auto report = api::Fitter().fit(measured, api::MftiStrategy{opts});
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_EQ(report->order, 87u);
  const double err = mfti::metrics::model_error(report->model, held_out);
  EXPECT_GE(err, 4e-3);
  EXPECT_LE(err, 6e-3);
}
