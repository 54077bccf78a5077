/// \file serving_engine.hpp
/// \brief The query router of the serving subsystem: one engine, one shared
/// thread pool, many registry models.
///
/// An `EvalRequest` is the one evaluation vocabulary of the stack: it
/// names a registered model and carries *either* complex Laplace `points`
/// *or* real `freqs_hz` (the HTTP wire format; the engine converts with
/// `api::points_from_freqs_hz`, the single source of `s = j 2 pi f`).
/// The engine resolves the model's live snapshot once per request (so a
/// response can never mix versions — a registry read that never waits on
/// a writer),
/// deduplicates identical points within the batch, fans the distinct
/// evaluations out over its own `parallel::ThreadPool` — shared across
/// every model it serves — and scatters the results back in request order.
/// Each distinct point is one O(n^2 m) solve on the handle's
/// Hessenberg–triangular form; nothing is cached between requests.
///
/// ```cpp
/// serving::ModelRegistry registry;
/// registry.publish("pdn", *report);
/// serving::ServingEngine engine(registry);
/// auto response = engine.evaluate(serving::EvalRequest::at_hz("pdn", grid));
/// ```

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/fit_request.hpp"
#include "api/model_handle.hpp"
#include "api/status.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serving/model_registry.hpp"

namespace mfti::serving {

struct ServingEngineOptions {
  /// Background workers of the engine's pool (the calling thread always
  /// participates, so n workers give n+1-way evaluation). 0 means
  /// `hardware_threads() - 1`.
  std::size_t workers = 0;
};

/// One routed evaluation of model `model`. Exactly one of `points`
/// (complex Laplace points, caller order) or `freqs_hz` (real frequencies
/// in Hz — the engine converts, callers never do) may be non-empty;
/// setting both is an invalid-argument error. This mirrors the HTTP wire
/// format, so the front passes either field through untouched.
struct EvalRequest {
  std::string model;
  std::vector<la::Complex> points;
  /// Alternative to `points`: evaluated at `s = j 2 pi f` via
  /// `api::points_from_freqs_hz`, bit-identical to every other Hz entry
  /// point of the stack.
  std::vector<la::Real> freqs_hz;
  /// Optional cooperative cancellation (e.g. a request deadline owned by
  /// the HTTP front). When set and cancelled, remaining per-point work is
  /// skipped — an expired request stops consuming pool time — and the
  /// request reports `StatusCode::Cancelled`. Engine behaviour is
  /// unchanged when no token is set.
  std::optional<api::CancellationToken> cancel;
  /// Optional request tracing (owned by the HTTP front's
  /// `obs::TraceContext`). When set, the engine records per-stage spans
  /// into it: `lookup` around the registry acquire and one `solve` per
  /// distinct point. Null costs one pointer check per request and per
  /// task.
  std::shared_ptr<obs::TraceContext> trace;

  EvalRequest() = default;
  EvalRequest(std::string model_name, std::vector<la::Complex> eval_points,
              std::optional<api::CancellationToken> cancel_token = {})
      : model(std::move(model_name)),
        points(std::move(eval_points)),
        cancel(std::move(cancel_token)) {}

  /// Request at explicit Laplace points.
  static EvalRequest at(std::string model, std::vector<la::Complex> points,
                        std::optional<api::CancellationToken> cancel = {}) {
    return EvalRequest(std::move(model), std::move(points),
                       std::move(cancel));
  }
  /// Request over a frequency grid (Hz).
  static EvalRequest at_hz(std::string model, std::vector<la::Real> freqs_hz,
                           std::optional<api::CancellationToken> cancel = {}) {
    EvalRequest request;
    request.model = std::move(model);
    request.freqs_hz = std::move(freqs_hz);
    request.cancel = std::move(cancel);
    return request;
  }
};

/// The served batch. `values[i]` is the response at the request's i-th
/// point (or frequency) of the snapshot that was live when the request
/// was routed; every value in one response comes from that same snapshot.
struct EvalResponse {
  std::string model;
  std::uint64_t version = 0;
  std::vector<la::CMat> values;
  /// Distinct points after in-batch deduplication (the number of
  /// evaluations actually dispatched).
  std::size_t unique_points = 0;
};

class ServingEngine {
 public:
  /// `registry` must outlive the engine.
  explicit ServingEngine(ModelRegistry& registry,
                         ServingEngineOptions opts = {});

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Route one request. Unknown models report not-found; a pole among the
  /// points reports numerical-error; the registry is never mutated.
  api::Expected<EvalResponse> evaluate(const EvalRequest& request) const;

  /// Route a batch across models: all distinct (model, point) evaluations
  /// of the whole batch share one pool fan-out. Responses line up with
  /// `batch` and fail independently.
  std::vector<api::Expected<EvalResponse>> evaluate(
      const std::vector<EvalRequest>& batch) const;

  std::size_t worker_count() const { return pool_.worker_count(); }

 private:
  ModelRegistry& registry_;
  mutable parallel::ThreadPool pool_;
};

}  // namespace mfti::serving
