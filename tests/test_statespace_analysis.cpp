// Tests for the post-fit analysis tools: pole-residue decomposition,
// time-domain simulation, passivity checking, and the pencil eigenvector
// kernels they are built on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "linalg/eig.hpp"
#include "linalg/norms.hpp"
#include "netgen/rlc.hpp"
#include "sampling/grid.hpp"
#include "statespace/passivity.hpp"
#include "statespace/pole_residue.hpp"
#include "statespace/random_system.hpp"
#include "statespace/response.hpp"
#include "statespace/simulate.hpp"

namespace la = mfti::la;
namespace ss = mfti::ss;
using la::CMat;
using la::Complex;
using la::Mat;

// --- pencil eigenvectors -----------------------------------------------------

TEST(PencilEigenvector, KnownDiagonalPencil) {
  const CMat a = la::to_complex(Mat::diagonal({2.0, 5.0}));
  const CMat e = la::to_complex(Mat::identity(2));
  const CMat v = la::pencil_eigenvector(a, e, Complex(5.0, 0.0));
  // Eigenvector of eigenvalue 5 is e_2 (up to phase).
  EXPECT_LT(std::abs(v(0, 0)), 1e-6);
  EXPECT_NEAR(std::abs(v(1, 0)), 1.0, 1e-10);
}

class PencilEigenvectorProperty : public ::testing::TestWithParam<int> {};

TEST_P(PencilEigenvectorProperty, ResidualIsSmall) {
  la::Rng rng(9000 + GetParam());
  const std::size_t n = 8;
  const CMat a = la::random_complex_matrix(n, n, rng);
  CMat e = la::random_complex_matrix(n, n, rng);
  e += la::to_complex(Mat::identity(n) * 3.0);  // keep E well conditioned
  const auto evs = la::generalized_eigenvalues(a, e);
  ASSERT_FALSE(evs.empty());
  for (const Complex& lam : evs) {
    const CMat v = la::pencil_eigenvector(a, e, lam);
    // || A v - lambda E v || should be tiny relative to scales.
    CMat resid = a * v;
    const CMat ev = e * v;
    for (std::size_t i = 0; i < n; ++i) resid(i, 0) -= lam * ev(i, 0);
    EXPECT_LT(la::frobenius_norm(resid),
              1e-6 * (a.max_abs() + std::abs(lam) * e.max_abs()));

    const CMat w = la::pencil_left_eigenvector(a, e, lam);
    CMat lresid = w.adjoint() * a;
    const CMat we = w.adjoint() * e;
    for (std::size_t j = 0; j < n; ++j) lresid(0, j) -= lam * we(0, j);
    EXPECT_LT(la::frobenius_norm(lresid),
              1e-6 * (a.max_abs() + std::abs(lam) * e.max_abs()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PencilEigenvectorProperty,
                         ::testing::Values(1, 2, 3));

TEST(PencilEigenvector, RejectsBadInput) {
  EXPECT_THROW(la::pencil_eigenvector(CMat(2, 3), CMat(2, 3), {}),
               std::invalid_argument);
  EXPECT_THROW(la::pencil_eigenvector(CMat(), CMat(), {}),
               std::invalid_argument);
}

// --- pole-residue decomposition ----------------------------------------------

class PoleResidueProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoleResidueProperty, ModalFormMatchesTransferFunction) {
  la::Rng rng(700 + GetParam());
  ss::RandomSystemOptions opts;
  opts.order = GetParam();
  opts.num_outputs = 3;
  opts.num_inputs = 2;
  opts.rank_d = 2;
  const ss::DescriptorSystem sys = ss::random_stable_mimo(opts, rng);
  const ss::PoleResidueModel pr = ss::pole_residue_decomposition(sys);
  EXPECT_EQ(pr.poles.size(), sys.order());
  for (double f : {20.0, 500.0, 4e4}) {
    const Complex s(0.0, 2.0 * std::numbers::pi * f);
    const CMat direct = ss::transfer_function(sys, s);
    const CMat modal = pr.evaluate(s);
    EXPECT_TRUE(la::approx_equal(direct, modal, 1e-5, 1e-7))
        << "mismatch at f=" << f;
  }
}

TEST_P(PoleResidueProperty, ResiduesAreConjugateClosed) {
  la::Rng rng(800 + GetParam());
  ss::RandomSystemOptions opts;
  opts.order = GetParam();
  opts.num_outputs = 2;
  opts.num_inputs = 2;
  const ss::DescriptorSystem sys = ss::random_stable_mimo(opts, rng);
  const ss::PoleResidueModel pr = ss::pole_residue_decomposition(sys);
  // For every pole, conj(pole) appears too, with conjugated residue.
  for (std::size_t q = 0; q < pr.poles.size(); ++q) {
    if (std::abs(pr.poles[q].imag()) < 1e-8 * std::abs(pr.poles[q])) continue;
    bool found = false;
    for (std::size_t r = 0; r < pr.poles.size(); ++r) {
      if (std::abs(pr.poles[r] - std::conj(pr.poles[q])) <
          1e-6 * std::abs(pr.poles[q])) {
        found = la::approx_equal(pr.residues[r],
                                 pr.residues[q].conjugate(), 1e-4, 1e-6);
        break;
      }
    }
    EXPECT_TRUE(found) << "no conjugate mate for pole " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, PoleResidueProperty,
                         ::testing::Values(4, 8, 14));

TEST(PoleResidue, DTermRecovered) {
  la::Rng rng(55);
  ss::RandomSystemOptions opts;
  opts.order = 6;
  opts.num_outputs = 2;
  opts.num_inputs = 2;
  opts.rank_d = 2;
  const ss::DescriptorSystem sys = ss::random_stable_mimo(opts, rng);
  const ss::PoleResidueModel pr = ss::pole_residue_decomposition(sys);
  EXPECT_TRUE(la::approx_equal(pr.d, sys.d, 1e-5, 1e-7));
}

TEST(PoleResidue, RejectsEmptySystem) {
  ss::DescriptorSystem empty{Mat(0, 0), Mat(0, 0), Mat(0, 1), Mat(1, 0),
                             Mat(1, 1)};
  EXPECT_THROW(ss::pole_residue_decomposition(empty), std::invalid_argument);
}

// --- modal reconstruction and truncation -------------------------------------

TEST(ModalReconstruction, RoundTripPreservesTransferFunction) {
  la::Rng rng(57);
  ss::RandomSystemOptions opts;
  opts.order = 8;
  opts.num_outputs = 2;
  opts.num_inputs = 3;
  opts.rank_d = 2;
  const ss::DescriptorSystem sys = ss::random_stable_mimo(opts, rng);
  const ss::PoleResidueModel pr = ss::pole_residue_decomposition(sys);
  const ss::DescriptorSystem rebuilt = pr.to_state_space();
  for (double f : {15.0, 300.0, 2e4}) {
    const Complex s(0.0, 2.0 * std::numbers::pi * f);
    EXPECT_TRUE(la::approx_equal(ss::transfer_function(rebuilt, s),
                                 ss::transfer_function(sys, s), 1e-5, 1e-7));
  }
}

TEST(ModalReconstruction, RejectsInconsistentInput) {
  const auto realize = [](std::vector<Complex> poles,
                          std::vector<CMat> residues, Mat d) {
    ss::PoleResidueModel model;
    model.poles = std::move(poles);
    model.residues = std::move(residues);
    model.d = std::move(d);
    return model.to_state_space();
  };
  EXPECT_THROW(realize({Complex(-1, 0)}, {}, Mat(1, 1)),
               std::invalid_argument);
  EXPECT_THROW(realize({Complex(-1, 0)}, {CMat(2, 2)}, Mat(1, 1)),
               std::invalid_argument);
  // Complex pole without a conjugate mate.
  EXPECT_THROW(realize({Complex(-1, 5)}, {CMat(1, 1)}, Mat(1, 1)),
               std::invalid_argument);
}

// The layout vector fitting's bitwise-reproducible realizations rest on:
// blocks in list order, one state per pole per input, a pair as
// [α I, β I; -β I, α I] with B = [2 I; 0] and C = [Re R, Im R] of its +Im
// member, whichever member is listed first.
TEST(ModalReconstruction, BlockLayoutIsFixed) {
  // A real pole -3 and the pair -1 ± 2j on two inputs and two outputs, and
  // the realization, written out row by row.
  // clang-format off
  const CMat r_a{{Complex(1, 5), Complex(2, 6)},
                 {Complex(3, 7), Complex(4, 8)}};
  const Mat d{{0.5, 0.0},
              {0.0, 0.25}};
  const Mat a_expected{{-3,  0,  0,  0,  0,  0},
                       { 0, -3,  0,  0,  0,  0},
                       { 0,  0, -1,  0,  2,  0},
                       { 0,  0,  0, -1,  0,  2},
                       { 0,  0, -2,  0, -1,  0},
                       { 0,  0,  0, -2,  0, -1}};
  const Mat b_expected{{1, 0},
                       {0, 1},
                       {2, 0},
                       {0, 2},
                       {0, 0},
                       {0, 0}};
  const Mat c_expected{{1, 2, 1, 2, 5, 6},
                       {3, 4, 3, 4, 7, 8}};
  const ss::DescriptorSystem expected{Mat::identity(6), a_expected,
                                      b_expected, c_expected, d};
  // clang-format on
  const Complex a(-1.0, 2.0);
  ss::PoleResidueModel model;
  model.poles = {Complex(-3.0, 0.0), a, std::conj(a)};
  model.residues = {la::to_complex(Mat{{1, 2}, {3, 4}}), r_a, r_a.conjugate()};
  model.d = d;
  ss::PoleResidueModel mate_first = model;
  std::swap(mate_first.poles[1], mate_first.poles[2]);
  std::swap(mate_first.residues[1], mate_first.residues[2]);
  EXPECT_TRUE(model.to_state_space() == expected);
  EXPECT_TRUE(mate_first.to_state_space() == expected);
}

TEST(ModalReconstruction, ListOrderDoesNotChangeTheResponse) {
  la::Rng rng(59);
  const Complex a(-100.0, 2.0 * std::numbers::pi * 1e3);
  const Complex b(-2000.0, 2.0 * std::numbers::pi * 2e4);
  const Complex r(-500.0, 0.0);
  const CMat r_a = la::random_complex_matrix(2, 3, rng);
  const CMat r_b = la::random_complex_matrix(2, 3, rng);
  const CMat r_r = la::to_complex(la::random_matrix(2, 3, rng));
  const Mat d = la::random_matrix(2, 3, rng);
  ss::PoleResidueModel canonical;
  canonical.poles = {a, std::conj(a), b, std::conj(b), r};
  canonical.residues = {r_a, r_a.conjugate(), r_b, r_b.conjugate(), r_r};
  canonical.d = d;
  // -Im members first, pairs split by a real pole and by each other.
  ss::PoleResidueModel shuffled;
  shuffled.poles = {std::conj(b), r, std::conj(a), b, a};
  shuffled.residues = {r_b.conjugate(), r_r, r_a.conjugate(), r_b, r_a};
  shuffled.d = d;
  const ss::DescriptorSystem x = canonical.to_state_space();
  const ss::DescriptorSystem y = shuffled.to_state_space();
  EXPECT_EQ(y.order(), x.order());
  for (double f : {30.0, 1e3, 2e4, 1e5}) {
    const Complex s(0.0, 2.0 * std::numbers::pi * f);
    const CMat hx = ss::transfer_function(x, s);
    const double gap = la::two_norm(ss::transfer_function(y, s) - hx);
    EXPECT_LE(gap, 1e-12 * la::two_norm(hx)) << "f=" << f;
    EXPECT_TRUE(la::approx_equal(hx, canonical.evaluate(s), 1e-10, 1e-12));
  }
}

TEST(ConjugateBlocks, OriginPoleIsRealAndMateMayDriftByRounding) {
  // The shapes shift-invert returns for an RLC ladder: a pole at the
  // origin with a rounding-sized imaginary part, and a pair whose members
  // are conjugates only to 1.3e-6 relative.
  const Complex p(-1e7, 3.7e10);
  const Complex drifted = std::conj(p) * Complex(1.0 + 1.3e-6, 0.0);
  const std::vector<ss::ConjugateBlock> blocks =
      ss::conjugate_blocks({drifted, Complex(5.6e-17, 2.8e-17), p});
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].upper, 2u);
  EXPECT_EQ(blocks[0].lower, 0u);
  EXPECT_EQ(blocks[1].upper, 1u);
  EXPECT_FALSE(blocks[1].is_pair());
  // Beyond 1e-3 |p| the mate is rejected.
  EXPECT_THROW(ss::conjugate_blocks({p, std::conj(p) * Complex(1.01, 0.0)}),
               std::invalid_argument);
}

// Modal form of RLC ladders like perfbench's `ic*` interconnects (2-port,
// all poles finite, one at the origin): the realization keeps every pole,
// one state per pole per input, and reproduces the transfer function over
// 10 MHz - 20 GHz.
class LadderModalForm : public ::testing::TestWithParam<std::size_t> {
 protected:
  static double worst_relative_gap(const ss::DescriptorSystem& model,
                                   const ss::DescriptorSystem& truth) {
    double worst = 0.0;
    for (double f : mfti::sampling::log_grid(1e7, 2e10, 41)) {
      const Complex s(0.0, 2.0 * std::numbers::pi * f);
      const CMat h = ss::transfer_function(truth, s);
      const CMat gap = ss::transfer_function(model, s) - h;
      worst = std::max(worst, la::two_norm(gap) / la::two_norm(h));
    }
    return worst;
  }
};

TEST_P(LadderModalForm, RealizationKeepsEveryPole) {
  const ss::DescriptorSystem sys = mfti::netgen::rlc_ladder(GetParam());
  const ss::DescriptorSystem rebuilt =
      ss::pole_residue_decomposition(sys).to_state_space();
  EXPECT_EQ(rebuilt.order(), 2 * sys.order());
  EXPECT_LT(worst_relative_gap(rebuilt, sys), 1e-3);
}

TEST_P(LadderModalForm, ZeroToleranceTruncationKeepsEveryPole) {
  const ss::DescriptorSystem sys = mfti::netgen::rlc_ladder(GetParam());
  const ss::DescriptorSystem same = ss::modal_truncation(sys, 0.0);
  EXPECT_EQ(same.order(), 2 * sys.order());
  EXPECT_LT(worst_relative_gap(same, sys), 1e-3);
}

TEST_P(LadderModalForm, EveryTruncationRealizes) {
  // The origin pole reads as real only next to the list's largest pole; a
  // kept sub-list without the large poles must still realize.
  const ss::DescriptorSystem sys = mfti::netgen::rlc_ladder(GetParam());
  for (double tol : {1e-12, 1e-8, 1e-4}) {
    EXPECT_NO_THROW(ss::modal_truncation(sys, tol)) << "rel_tol=" << tol;
  }
}

INSTANTIATE_TEST_SUITE_P(Sections, LadderModalForm,
                         ::testing::Range<std::size_t>(2, 14));

TEST(ModalTruncation, KeepsDominantDynamics) {
  // A strong mode and a mode 1e9 times weaker: truncation must drop the
  // weak pair only and leave the response essentially unchanged.
  const Complex strong(-100.0, 2.0 * std::numbers::pi * 1e3);
  const Complex weak(-500.0, 2.0 * std::numbers::pi * 2e4);
  CMat r_strong(1, 1, Complex(1e4, 2e3));
  CMat r_weak(1, 1, Complex(1e-5, 1e-6));
  ss::PoleResidueModel modes;
  modes.poles = {strong, std::conj(strong), weak, std::conj(weak)};
  modes.residues = {r_strong, r_strong.conjugate(), r_weak, r_weak.conjugate()};
  modes.d = Mat{{0.25}};
  const ss::DescriptorSystem sys = modes.to_state_space();
  EXPECT_EQ(sys.order(), 4u);
  const ss::DescriptorSystem small = ss::modal_truncation(sys, 1e-6);
  EXPECT_EQ(small.order(), 2u);
  for (double f : {100.0, 1e3, 1e4}) {
    const Complex s(0.0, 2.0 * std::numbers::pi * f);
    EXPECT_TRUE(la::approx_equal(ss::transfer_function(small, s),
                                 ss::transfer_function(sys, s), 1e-5, 1e-7));
  }
}

TEST(ModalTruncation, ZeroToleranceKeepsEverything) {
  la::Rng rng(58);
  ss::RandomSystemOptions opts;
  opts.order = 6;
  opts.num_outputs = 2;
  opts.num_inputs = 2;
  const ss::DescriptorSystem sys = ss::random_stable_mimo(opts, rng);
  const ss::DescriptorSystem same = ss::modal_truncation(sys, 0.0);
  // order = poles * inputs in the rebuilt block form.
  EXPECT_EQ(same.order(), sys.order() * sys.num_inputs());
  const Complex s(0.0, 2.0 * std::numbers::pi * 777.0);
  EXPECT_TRUE(la::approx_equal(ss::transfer_function(same, s),
                               ss::transfer_function(sys, s), 1e-5, 1e-7));
}

// --- time-domain simulation --------------------------------------------------

TEST(Simulate, FirstOrderStepResponse) {
  // H(s) = 1/(s+1): step response 1 - exp(-t).
  ss::DescriptorSystem sys{Mat{{1}}, Mat{{-1}}, Mat{{1}}, Mat{{1}}, Mat{{0}}};
  const ss::Simulation sim = ss::step_response(sys, 0, 1e-3, 5.0);
  ASSERT_GT(sim.steps(), 100u);
  for (std::size_t k = 0; k < sim.steps(); k += 500) {
    const double expected = 1.0 - std::exp(-sim.time[k]);
    EXPECT_NEAR(sim.outputs[k][0], expected, 1e-4);
  }
  // Final value ~ 1 (dc gain).
  EXPECT_NEAR(sim.outputs.back()[0], 1.0, 1e-2);
}

TEST(Simulate, FeedthroughAppearsInstantly) {
  ss::DescriptorSystem sys{Mat{{1}}, Mat{{-1}}, Mat{{0}}, Mat{{0}},
                           Mat{{2.5}}};
  const ss::Simulation sim = ss::step_response(sys, 0, 0.01, 0.1);
  EXPECT_NEAR(sim.outputs[0][0], 2.5, 1e-12);
  EXPECT_NEAR(sim.outputs.back()[0], 2.5, 1e-12);
}

TEST(Simulate, SinusoidSteadyStateMatchesTransferFunction) {
  // Drive H(s) = 1/(s+1) with sin(w t); steady-state amplitude |H(jw)|.
  ss::DescriptorSystem sys{Mat{{1}}, Mat{{-1}}, Mat{{1}}, Mat{{1}}, Mat{{0}}};
  const double w = 3.0;
  const ss::Simulation sim = ss::simulate(
      sys, [w](double t) { return std::vector<double>{std::sin(w * t)}; },
      1e-3, 30.0);
  // Amplitude over the last quarter of the run.
  double amp = 0.0;
  for (std::size_t k = 3 * sim.steps() / 4; k < sim.steps(); ++k) {
    amp = std::max(amp, std::abs(sim.outputs[k][0]));
  }
  const double expected =
      std::abs(ss::transfer_function(sys, Complex(0.0, w))(0, 0));
  EXPECT_NEAR(amp, expected, 0.01 * expected);
}

TEST(Simulate, EnergyDecaysForStableAutonomousSystem) {
  la::Rng rng(66);
  ss::RandomSystemOptions opts;
  opts.order = 8;
  opts.num_outputs = 1;
  opts.num_inputs = 1;
  opts.f_min_hz = 0.5;
  opts.f_max_hz = 5.0;
  const ss::DescriptorSystem sys = ss::random_stable_mimo(opts, rng);
  // Impulse-ish input: one short pulse, then zero.
  const ss::Simulation sim = ss::simulate(
      sys,
      [](double t) { return std::vector<double>{t < 0.01 ? 100.0 : 0.0}; },
      1e-3, 50.0);
  double early = 0.0, late = 0.0;
  for (std::size_t k = 0; k < sim.steps() / 10; ++k)
    early = std::max(early, std::abs(sim.outputs[k][0]));
  for (std::size_t k = 9 * sim.steps() / 10; k < sim.steps(); ++k)
    late = std::max(late, std::abs(sim.outputs[k][0]));
  EXPECT_LT(late, 0.05 * (early + 1e-12));
}

TEST(Simulate, InvalidArgumentsThrow) {
  ss::DescriptorSystem sys{Mat{{1}}, Mat{{-1}}, Mat{{1}}, Mat{{1}}, Mat{{0}}};
  auto u = [](double) { return std::vector<double>{0.0}; };
  EXPECT_THROW(ss::simulate(sys, u, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ss::simulate(sys, u, 0.1, -1.0), std::invalid_argument);
  auto bad = [](double) { return std::vector<double>{0.0, 0.0}; };
  EXPECT_THROW(ss::simulate(sys, bad, 0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(ss::step_response(sys, 7, 0.1, 1.0), std::invalid_argument);
}

// --- passivity ---------------------------------------------------------------

namespace {

// A trivially passive "system": H(s) = g / (s/w0 + 1) with |g| < 1.
ss::DescriptorSystem gain_lowpass(double g, double w0) {
  return {Mat{{1.0 / w0}}, Mat{{-1}}, Mat{{1}}, Mat{{g}}, Mat{{0}}};
}

}  // namespace

TEST(Passivity, PassiveLowpassHasNoViolations) {
  const ss::DescriptorSystem sys = gain_lowpass(0.8, 2.0 * M_PI * 1e3);
  EXPECT_TRUE(ss::is_scattering_passive(sys, 1.0, 1e6));
}

TEST(Passivity, GainAboveOneIsFlagged) {
  const ss::DescriptorSystem sys = gain_lowpass(1.3, 2.0 * M_PI * 1e3);
  const auto v = ss::scattering_passivity_violations(sys, 1.0, 1e6);
  ASSERT_FALSE(v.empty());
  // The worst point is at low frequency where |H| ~ 1.3.
  EXPECT_NEAR(v.front().worst_norm, 1.3, 0.01);
  EXPECT_FALSE(ss::is_scattering_passive(sys, 1.0, 1e6));
}

TEST(Passivity, ResonantViolationLocalised) {
  // A lightly damped resonance pushed above unit gain at w0 = 2 pi 1e4:
  // H(s) = 1.5 w0^2 / (s^2 + 0.02 w0 s + w0^2) peaks at ~75 but only
  // near w0.
  const double w0 = 2.0 * M_PI * 1e4;
  ss::DescriptorSystem sys{
      Mat::identity(2), Mat{{0.0, w0}, {-w0, -0.02 * w0}}, Mat{{0.0}, {w0}},
      Mat{{1.5, 0.0}}, Mat{{0.0}}};
  const auto v = ss::scattering_passivity_violations(sys, 1e2, 1e6);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NEAR(v.front().worst_f_hz, 1e4, 0.1e4);
  EXPECT_GT(v.front().worst_norm, 10.0);
}

TEST(Passivity, InvalidBandThrows) {
  const ss::DescriptorSystem sys = gain_lowpass(0.5, 1e3);
  EXPECT_THROW(ss::scattering_passivity_violations(sys, -1.0, 1e3),
               std::invalid_argument);
  EXPECT_THROW(ss::scattering_passivity_violations(sys, 1e3, 1e2),
               std::invalid_argument);
  ss::PassivityScanOptions opts;
  opts.grid_points = 1;
  EXPECT_THROW(ss::scattering_passivity_violations(sys, 1.0, 1e3, opts),
               std::invalid_argument);
}

TEST(Passivity, PdnScatteringModelIsPassive) {
  // The synthetic PDN converted to S-parameters is passive by construction;
  // a Loewner model fitted to abundant clean samples should remain passive
  // in the fitted band. (Integration-flavoured sanity check.)
  la::Rng rng(77);
  ss::RandomSystemOptions opts;
  opts.order = 10;
  opts.num_outputs = 2;
  opts.num_inputs = 2;
  opts.rank_d = 2;
  opts.d_scale = 0.3;
  const ss::DescriptorSystem sys = ss::random_stable_mimo(opts, rng);
  // Not guaranteed passive — just exercise the scan end-to-end and check
  // consistency between the two query forms.
  const auto v = ss::scattering_passivity_violations(sys, 10.0, 1e5);
  EXPECT_EQ(v.empty(), ss::is_scattering_passive(sys, 10.0, 1e5));
}
