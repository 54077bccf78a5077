// Tests for the parallel execution layer (src/parallel) and the contract
// that every parallelised hot path — Loewner pencil assembly, tangential
// data construction, batch frequency sweeps, the blocked GEMM, LU,
// eigensolvers, QR/SVD panels and Jacobi rotations — produces results
// matching the serial path element-wise within 1e-12 (the O(n^3) kernels
// are in fact bitwise identical and asserted exactly).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/mfti.hpp"
#include "hard_pencils.hpp"
#include "linalg/eig.hpp"
#include "linalg/lu.hpp"
#include "linalg/multiply.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/random.hpp"
#include "linalg/svd.hpp"
#include "loewner/matrices.hpp"
#include "loewner/tangential.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "sampling/grid.hpp"
#include "sampling/sampler.hpp"
#include "statespace/random_system.hpp"
#include "statespace/response.hpp"

namespace la = mfti::la;
namespace lw = mfti::loewner;
namespace par = mfti::parallel;
namespace sp = mfti::sampling;
namespace ss = mfti::ss;
using la::CMat;
using la::Complex;
using la::Mat;

namespace {

constexpr double kTol = 1e-12;

// Parallel policy used throughout: pool mode with the default thread count.
// On a single-core host this still exercises the batch/chunk machinery.
par::ExecutionPolicy pool() { return par::ExecutionPolicy::with_threads(4); }

// Largest entry-wise difference between two same-shape matrices.
template <typename T>
double max_diff(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      m = std::max(m, la::detail::abs_value(a(i, j) - b(i, j)));
  return m;
}

ss::DescriptorSystem make_system(std::size_t order, std::size_t ports,
                                 std::uint64_t seed) {
  la::Rng rng(seed);
  ss::RandomSystemOptions opts;
  opts.order = order;
  opts.num_outputs = ports;
  opts.num_inputs = ports;
  opts.rank_d = ports;
  opts.f_min_hz = 10.0;
  opts.f_max_hz = 1e5;
  return ss::random_stable_mimo(opts, rng);
}

lw::TangentialData make_data(std::size_t order, std::size_t ports,
                             std::size_t samples, std::uint64_t seed) {
  const auto sys = make_system(order, ports, seed);
  return lw::build_tangential_data(
      sp::sample_system(sys, sp::log_grid(10.0, 1e5, samples)));
}

}  // namespace

// --- execution policy -------------------------------------------------------

TEST(ExecutionPolicy, DefaultIsSerial) {
  const par::ExecutionPolicy p;
  EXPECT_TRUE(p.is_serial());
  EXPECT_EQ(p.max_workers(1000), 1u);
}

TEST(ExecutionPolicy, ThreadsModeCapsAtItemsAndThreads) {
  const auto p = par::ExecutionPolicy::with_threads(4);
  EXPECT_FALSE(p.is_serial());
  EXPECT_EQ(p.max_workers(2), 2u);
  EXPECT_LE(p.max_workers(100), 4u);
  EXPECT_EQ(p.max_workers(0), 1u);
  EXPECT_EQ(p.max_workers(1), 1u);
}

// --- thread pool / parallel_for --------------------------------------------

TEST(ThreadPool, RunBatchExecutesEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  par::ThreadPool::global().run_batch(
      n, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

// The global pool has hardware_threads() - 1 workers, which is zero on a
// single-core host — there run_batch degenerates to the serial fast path.
// A directly constructed multi-worker pool exercises the concurrent
// claim/drain/wait machinery deterministically on any host.

TEST(ThreadPoolConcurrent, MultiWorkerBatchCoversAllIndices) {
  par::ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  for (int round = 0; round < 20; ++round) {
    pool.run_batch(n, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 20);
}

TEST(ThreadPoolConcurrent, PropagatesExceptionAndFinishesBatch) {
  par::ThreadPool pool(3);
  std::atomic<int> done{0};
  EXPECT_THROW(pool.run_batch(500, 4,
                              [&](std::size_t i) {
                                if (i == 123) throw std::runtime_error("x");
                                done.fetch_add(1);
                              }),
               std::runtime_error);
  // Every non-throwing iteration still ran exactly once.
  EXPECT_EQ(done.load(), 499);
}

TEST(ThreadPoolConcurrent, ManySmallBatchesDoNotLoseWakeups) {
  par::ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 500; ++round) {
    pool.run_batch(3, 2, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1500);
}

TEST(ParallelFor, CoversRangeUnderBothPolicies) {
  for (const auto& exec : {par::ExecutionPolicy::serial(), pool()}) {
    const std::size_t n = 257;  // deliberately not a multiple of any chunking
    std::vector<std::atomic<int>> hits(n);
    par::parallel_for(n, exec, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      par::parallel_for(100, pool(),
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  std::atomic<int> total{0};
  par::parallel_for(8, pool(), [&](std::size_t) {
    par::parallel_for(8, pool(), [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelReduce, MatchesSerialSum) {
  const std::size_t n = 10007;
  auto square = [](std::size_t i) {
    return static_cast<double>(i) * static_cast<double>(i);
  };
  double serial = 0.0;
  for (std::size_t i = 0; i < n; ++i) serial += square(i);
  const double parallel = par::parallel_reduce(
      n, 0.0, pool(), square, [](double a, double b) { return a + b; });
  EXPECT_NEAR(parallel, serial, 1e-9 * serial);
}

// --- Loewner hot paths ------------------------------------------------------

TEST(ParallelLoewner, PairMatchesSerialElementwise) {
  const lw::TangentialData d = make_data(20, 4, 12, 11);
  const auto [ll_s, sll_s] = lw::loewner_pair(d);
  const auto [ll_p, sll_p] = lw::loewner_pair(d, pool());
  EXPECT_LE(max_diff(ll_s, ll_p), kTol);
  EXPECT_LE(max_diff(sll_s, sll_p), kTol);

  EXPECT_LE(max_diff(lw::loewner_matrix(d), lw::loewner_matrix(d, pool())),
            kTol);
  EXPECT_LE(max_diff(lw::shifted_loewner_matrix(d),
                     lw::shifted_loewner_matrix(d, pool())),
            kTol);
}

TEST(ParallelLoewner, ParallelPairStillSatisfiesSylvester) {
  const lw::TangentialData d = make_data(16, 3, 10, 12);
  const auto [ll, sll] = lw::loewner_pair(d, pool());
  const auto [r1, r2] = lw::sylvester_residuals(d, ll, sll);
  EXPECT_LE(r1, 1e-12);
  EXPECT_LE(r2, 1e-12);
}

TEST(ParallelTangential, BuildMatchesSerialElementwise) {
  const auto sys = make_system(18, 3, 21);
  const auto samples = sp::sample_system(sys, sp::log_grid(10.0, 1e5, 14));
  const lw::TangentialOptions opts;  // random orthonormal directions
  const lw::TangentialData serial = lw::build_tangential_data(samples, opts);
  const lw::TangentialData parallel =
      lw::build_tangential_data(samples, opts, pool());
  // Same RNG stream, same stacked layout, element-wise equal data.
  ASSERT_EQ(serial.lambda.size(), parallel.lambda.size());
  ASSERT_EQ(serial.mu.size(), parallel.mu.size());
  for (std::size_t i = 0; i < serial.lambda.size(); ++i)
    EXPECT_LE(std::abs(serial.lambda[i] - parallel.lambda[i]), kTol);
  for (std::size_t i = 0; i < serial.mu.size(); ++i)
    EXPECT_LE(std::abs(serial.mu[i] - parallel.mu[i]), kTol);
  EXPECT_LE(max_diff(serial.r, parallel.r), kTol);
  EXPECT_LE(max_diff(serial.w, parallel.w), kTol);
  EXPECT_LE(max_diff(serial.l, parallel.l), kTol);
  EXPECT_LE(max_diff(serial.v, parallel.v), kTol);
}

// --- batch frequency response ----------------------------------------------

// The Hessenberg–triangular evaluator against the dense-LU reference: a
// random stable system, then the pencils a modal evaluation cannot serve
// (hard_pencils.hpp), each within 1e-12 of the largest entry.
TEST(BatchEvaluator, MatchesTransferFunctionPointwise) {
  const auto sys = make_system(24, 3, 31);
  const ss::BatchEvaluator eval(sys);
  for (double f : sp::log_grid(10.0, 1e5, 7)) {
    const Complex s(0.0, 2.0 * 3.14159265358979323846 * f);
    EXPECT_LE(max_diff(eval.evaluate(s), ss::transfer_function(sys, s)),
              kTol);
  }
  for (const hard_pencils::Case& c : hard_pencils::cases()) {
    const ss::BatchEvaluator hard(c.sys);
    for (const la::Complex& s : mfti::api::points_from_freqs_hz(c.freqs_hz)) {
      EXPECT_LE(hard_pencils::relative_diff(hard.evaluate(s),
                                            ss::transfer_function(c.sys, s)),
                kTol)
          << c.name << " at s = " << s;
    }
  }
  // A complex system takes the unitary reduction.
  la::Rng rng(33);
  const std::size_t n = 12;
  const CMat eye = CMat::identity(n);
  const ss::ComplexDescriptorSystem csys{
      eye + 0.1 * la::random_complex_matrix(n, n, rng),
      la::random_complex_matrix(n, n, rng) - 6.0 * eye,
      la::random_complex_matrix(n, 3, rng),
      la::random_complex_matrix(2, n, rng),
      la::random_complex_matrix(2, 3, rng)};
  const ss::BatchEvaluator ceval(csys);
  for (const la::Complex& s : mfti::api::points_from_freqs_hz(
           sp::log_grid(0.01, 10.0, 9))) {
    EXPECT_LE(hard_pencils::relative_diff(ceval.evaluate(s),
                                          ss::transfer_function(csys, s)),
              kTol)
        << "complex system at s = " << s;
  }
  // A model without inputs (a snapshot can carry one) answers p x 0.
  ss::DescriptorSystem no_inputs = make_system(6, 2, 34);
  no_inputs.b = Mat(6, 0);
  no_inputs.d = Mat(2, 0);
  const CMat empty = ss::BatchEvaluator(no_inputs).evaluate(Complex(0.0, 1.0));
  EXPECT_EQ(empty.rows(), 2u);
  EXPECT_EQ(empty.cols(), 0u);
  // Exactly at a pole the elimination meets a zero pivot.
  const ss::BatchEvaluator one_pole(hard_pencils::one_pole_at_minus_two());
  EXPECT_THROW(one_pole.evaluate(Complex(-2.0, 0.0)), la::SingularMatrixError);
}

TEST(BatchEvaluator, ParallelSweepMatchesSerialElementwise) {
  const auto sys = make_system(30, 4, 32);
  const auto freqs = sp::log_grid(10.0, 1e5, 64);
  const auto serial = ss::frequency_response(sys, freqs);
  const auto parallel = ss::frequency_response(sys, freqs, pool());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_LE(max_diff(serial[i], parallel[i]), kTol);
}

// --- O(n^3) kernels: parallel must be bitwise identical to serial -----------

TEST(ParallelGemm, BlockedProductMatchesSerialExactly) {
  la::Rng rng(61);
  // Big enough for the blocked path and for several row chunks; odd sizes
  // so chunk and tile boundaries land mid-group.
  const Mat a = la::random_matrix(131, 301, rng);
  const Mat b = la::random_matrix(301, 271, rng);
  const Mat serial = a * b;
  for (std::size_t threads : {2u, 3u, 4u, 8u}) {
    const Mat parallel =
        la::multiply(a, b, par::ExecutionPolicy::with_threads(threads));
    EXPECT_TRUE(parallel == serial) << "threads=" << threads;
  }

  la::Rng crng(62);
  const CMat ca = la::random_complex_matrix(90, 210, crng);
  const CMat cb = la::random_complex_matrix(210, 150, crng);
  const CMat cserial = ca * cb;
  const CMat cparallel = la::multiply(ca, cb, pool());
  EXPECT_TRUE(cparallel == cserial);
}

TEST(ParallelLu, FactorisationAndSolveMatchSerialExactly) {
  la::Rng rng(63);
  const CMat a = la::random_complex_matrix(120, 120, rng);
  const CMat b = la::random_complex_matrix(120, 30, rng);
  const la::LuDecomposition<Complex> serial(a);
  const la::LuDecomposition<Complex> parallel(a, pool());
  EXPECT_EQ(serial.is_singular(), parallel.is_singular());
  EXPECT_EQ(serial.determinant(), parallel.determinant());
  EXPECT_TRUE(parallel.solve(b) == serial.solve(b));
  EXPECT_TRUE(parallel.inverse() == serial.inverse());
}

TEST(ParallelLu, RealSolveMatchesSerialExactly) {
  la::Rng rng(64);
  const Mat a = la::random_matrix(90, 90, rng);
  const Mat b = la::random_matrix(90, 90, rng);
  EXPECT_TRUE(la::solve(a, b, pool()) == la::solve(a, b));
}

TEST(ParallelLu, BlockedFactorisationMatchesSerialOnPanelEdges) {
  // Sizes straddling the kLuPanel blocking: the parallel trailing GEMM and
  // block-row solve must stay bitwise equal to serial however the panel
  // and remainder rows land in thread chunks.
  for (std::size_t n : {la::kLuPanel - 1, la::kLuPanel + 1,
                        2 * la::kLuPanel + 5}) {
    la::Rng rng(600 + n);
    const Mat a = la::random_matrix(n, n, rng);
    const la::LuDecomposition<double> serial(a);
    const la::LuDecomposition<double> parallel(a, pool());
    EXPECT_TRUE(parallel.packed_lu() == serial.packed_lu()) << "n=" << n;
    EXPECT_EQ(parallel.permutation(), serial.permutation());
  }
}

TEST(ParallelEig, EigenvaluesMatchSerialExactly) {
  la::Rng rng(65);
  const CMat a = la::random_complex_matrix(60, 60, rng);
  la::EigOptions parallel_opts;
  parallel_opts.exec = pool();
  const auto serial = la::eigenvalues(a);
  const auto parallel = la::eigenvalues(a, parallel_opts);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "eigenvalue " << i;
}

TEST(ParallelEig, GeneralizedEigenvaluesMatchSerialExactly) {
  la::Rng rng(66);
  const CMat a = la::random_complex_matrix(50, 50, rng);
  const CMat e = la::random_complex_matrix(50, 50, rng);
  la::EigOptions parallel_opts;
  parallel_opts.exec = pool();
  const auto serial = la::generalized_eigenvalues(a, e);
  const auto parallel =
      la::generalized_eigenvalues(a, e, std::nullopt, 1e-12, parallel_opts);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "eigenvalue " << i;
}

TEST(ParallelSvd, JacobiRoundRobinMatchesSerialExactly) {
  la::Rng rng(67);
  const CMat a = la::random_complex_matrix(70, 48, rng);
  la::SvdOptions serial_opts;
  serial_opts.algorithm = la::SvdAlgorithm::Jacobi;
  la::SvdOptions parallel_opts = serial_opts;
  parallel_opts.exec = pool();
  const la::Svd<Complex> s = la::svd(a, serial_opts);
  const la::Svd<Complex> p = la::svd(a, parallel_opts);
  ASSERT_EQ(s.s.size(), p.s.size());
  for (std::size_t i = 0; i < s.s.size(); ++i) EXPECT_EQ(s.s[i], p.s[i]);
  EXPECT_TRUE(p.u == s.u);
  EXPECT_TRUE(p.v == s.v);
}

TEST(ParallelSvd, JacobiOddColumnCountMatchesSerialExactly) {
  la::Rng rng(68);
  const Mat a = la::random_matrix(80, 41, rng);  // odd: bye round in play
  la::SvdOptions serial_opts;
  serial_opts.algorithm = la::SvdAlgorithm::Jacobi;
  la::SvdOptions parallel_opts = serial_opts;
  parallel_opts.exec = pool();
  const la::Svd<double> s = la::svd(a, serial_opts);
  const la::Svd<double> p = la::svd(a, parallel_opts);
  EXPECT_TRUE(p.u == s.u);
  EXPECT_TRUE(p.v == s.v);
  EXPECT_EQ(s.s, p.s);
}

// --- QR / SVD panels --------------------------------------------------------

TEST(ParallelQr, FactorizationMatchesSerial) {
  la::Rng rng(41);
  const Mat a = la::random_matrix(120, 90, rng);
  const la::QrDecomposition<double> serial(a);
  const la::QrDecomposition<double> parallel(a, pool());
  EXPECT_LE(max_diff(serial.r_thin(), parallel.r_thin()), kTol);
  EXPECT_LE(max_diff(serial.q_thin(), parallel.q_thin()), kTol);
}

TEST(ParallelSvd, GolubKahanMatchesSerial) {
  la::Rng rng(42);
  const Mat a = la::random_matrix(140, 100, rng);
  la::SvdOptions serial_opts;
  serial_opts.algorithm = la::SvdAlgorithm::GolubKahan;
  la::SvdOptions parallel_opts = serial_opts;
  parallel_opts.exec = pool();
  const la::Svd<double> s = la::svd(a, serial_opts);
  const la::Svd<double> p = la::svd(a, parallel_opts);
  ASSERT_EQ(s.s.size(), p.s.size());
  for (std::size_t i = 0; i < s.s.size(); ++i)
    EXPECT_NEAR(s.s[i], p.s[i], kTol * std::max(1.0, s.s.front()));
  EXPECT_LE(max_diff(s.u, p.u), kTol);
  EXPECT_LE(max_diff(s.v, p.v), kTol);
  EXPECT_LE(la::frobenius_norm(p.reconstruct() - a),
            1e-10 * la::frobenius_norm(a));
}

// --- end-to-end -------------------------------------------------------------

TEST(ParallelMfti, FitMatchesSerialModel) {
  const auto sys = make_system(14, 3, 51);
  const auto samples = sp::sample_system(sys, sp::log_grid(10.0, 1e5, 12));

  mfti::core::MftiOptions serial_opts;
  mfti::core::MftiOptions parallel_opts;
  parallel_opts.exec = pool();
  const auto serial = mfti::core::mfti_fit(samples, serial_opts);
  const auto parallel = mfti::core::mfti_fit(samples, parallel_opts);

  EXPECT_EQ(serial.order, parallel.order);
  EXPECT_LE(max_diff(serial.model.e, parallel.model.e), kTol);
  EXPECT_LE(max_diff(serial.model.a, parallel.model.a), kTol);
  EXPECT_LE(max_diff(serial.model.b, parallel.model.b), kTol);
  EXPECT_LE(max_diff(serial.model.c, parallel.model.c), kTol);
  EXPECT_LE(max_diff(serial.model.d, parallel.model.d), kTol);
}
