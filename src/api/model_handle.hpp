/// \file model_handle.hpp
/// \brief Serving wrapper around a fitted model: one `ss::BatchEvaluator`
/// (the Hessenberg–triangular form of the pencil), built on the first
/// evaluation and shared by every query after it, so each response query
/// — the serving hot path — costs one O(n^2 m) Hessenberg solve plus the
/// O(p n m) output product.
///
/// ```cpp
/// api::ModelHandle handle(*report);
/// auto h = handle.response_at(2.4e9);          // first call: reduce + solve
/// auto h2 = handle.response_at(1.2e9);         // later calls: solve only
/// auto sweep = handle.sweep(grid, exec_pool);  // parallel over points
/// ```
///
/// The reduction is lazy so that a handle nobody queries (rollback history,
/// a warm-restarted fleet before its first request) never pays it. Results
/// agree with the dense-LU reference `ss::transfer_function` to rounding;
/// repeated queries of one point on one handle are bitwise identical.

#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "api/fit_report.hpp"
#include "parallel/execution.hpp"
#include "statespace/descriptor.hpp"
#include "statespace/response.hpp"

namespace mfti::api {

/// The one frequency convention of the serving stack: `s = j 2 pi f` for
/// every `f` in Hz. `ModelHandle::sweep`, the engine's
/// `EvalRequest::freqs_hz` vocabulary and (through it) the HTTP wire
/// format all convert through this helper, so the same grid produces
/// bit-identical evaluation points on every path.
std::vector<la::Complex> points_from_freqs_hz(
    const std::vector<la::Real>& freqs_hz);

/// Thread-safe frequency-response server for one fitted model. All query
/// methods are const and safe to call concurrently.
class ModelHandle {
 public:
  /// \throws std::invalid_argument on inconsistent model dimensions.
  explicit ModelHandle(ss::DescriptorSystem model);
  /// Serve the model of a successful fit.
  explicit ModelHandle(const FitReport& report);

  const ss::DescriptorSystem& model() const { return model_; }
  std::size_t order() const { return model_.order(); }
  std::size_t num_inputs() const { return model_.num_inputs(); }
  std::size_t num_outputs() const { return model_.num_outputs(); }

  /// `H(s)` at one point. The first evaluation of the handle builds its
  /// evaluator; concurrent first callers wait for that one build.
  /// \throws la::SingularMatrixError when `s` is a pole (an exactly zero
  /// pivot).
  la::CMat evaluate(la::Complex s) const;

  /// `H(j 2 pi f)` at one frequency (Hz).
  la::CMat response_at(la::Real f_hz) const;

  /// `H(s)` at every point; independent points fan out under `exec`.
  std::vector<la::CMat> evaluate(
      const std::vector<la::Complex>& points,
      const parallel::ExecutionPolicy& exec = {}) const;

  /// `H(j 2 pi f)` for every frequency (Hz).
  std::vector<la::CMat> sweep(const std::vector<la::Real>& freqs_hz,
                              const parallel::ExecutionPolicy& exec = {}) const;

 private:
  const ss::BatchEvaluator& evaluator() const;

  ss::DescriptorSystem model_;
  mutable std::once_flag evaluator_once_;
  mutable std::unique_ptr<const ss::BatchEvaluator> evaluator_;
};

}  // namespace mfti::api
