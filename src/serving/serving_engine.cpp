#include "serving/serving_engine.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#include "linalg/matrix.hpp"

namespace mfti::serving {

namespace {

/// Bitwise identity of an evaluation point — what in-batch deduplication
/// means by "the same point".
struct PointHash {
  std::size_t operator()(const la::Complex& s) const {
    const std::size_t h_re = std::hash<la::Real>{}(s.real());
    const std::size_t h_im = std::hash<la::Real>{}(s.imag());
    return h_re ^ (h_im + 0x9e3779b97f4a7c15ull + (h_re << 6) + (h_re >> 2));
  }
};

}  // namespace

ServingEngine::ServingEngine(ModelRegistry& registry,
                             ServingEngineOptions opts)
    : registry_(registry),
      pool_(opts.workers == 0 ? parallel::hardware_threads() - 1
                              : opts.workers) {}

std::vector<api::Expected<EvalResponse>> ServingEngine::evaluate(
    const std::vector<EvalRequest>& batch) const {
  struct Prepared {
    ModelSnapshot handle;
    std::vector<la::Complex> converted;  // freqs_hz -> points, when used
    std::vector<la::Complex> unique;     // distinct points, first-seen order
    std::vector<std::size_t> scatter;    // point i -> unique index
    std::vector<la::CMat> values;        // one per unique point
    std::vector<std::optional<api::Status>> errors;  // one per unique point
    EvalResponse response;
    api::Status status;  // non-ok: request failed before dispatch
  };

  std::vector<Prepared> prepared(batch.size());
  struct Task {
    std::size_t request;
    std::size_t unique;
  };
  std::vector<Task> tasks;
  for (std::size_t r = 0; r < batch.size(); ++r) {
    Prepared& p = prepared[r];
    const EvalRequest& request = batch[r];
    if (request.cancel && request.cancel->cancelled()) {
      p.status = api::Status::cancelled("request cancelled before dispatch");
      continue;
    }
    if (!request.points.empty() && !request.freqs_hz.empty()) {
      p.status = api::Status::invalid_argument(
          "EvalRequest: set 'points' or 'freqs_hz', not both");
      continue;
    }
    obs::TraceContext* trace = request.trace.get();
    const auto lookup_start = trace != nullptr
                                  ? obs::TraceContext::Clock::now()
                                  : obs::TraceContext::Clock::time_point{};
    auto model = registry_.acquire(request.model);
    if (trace != nullptr) {
      trace->record(obs::Stage::Lookup, lookup_start,
                    obs::TraceContext::Clock::now());
    }
    if (!model) {
      p.status = model.status();
      continue;
    }
    p.handle = std::move(model->handle);
    p.response.model = request.model;
    p.response.version = model->info.version;
    if (!request.freqs_hz.empty()) {
      p.converted = api::points_from_freqs_hz(request.freqs_hz);
    }
    const std::vector<la::Complex>& points =
        request.freqs_hz.empty() ? request.points : p.converted;
    std::unordered_map<la::Complex, std::size_t, PointHash> seen;
    seen.reserve(points.size());
    p.scatter.reserve(points.size());
    for (const la::Complex& s : points) {
      const auto [it, inserted] = seen.emplace(s, p.unique.size());
      if (inserted) p.unique.push_back(s);
      p.scatter.push_back(it->second);
    }
    p.values.resize(p.unique.size());
    p.errors.resize(p.unique.size());
    p.response.unique_points = p.unique.size();
    for (std::size_t u = 0; u < p.unique.size(); ++u) {
      tasks.push_back({r, u});
    }
  }

  // One shared fan-out for the whole batch: distinct (model, point) pairs
  // across every request claim pool slots together.
  pool_.run_batch(
      tasks.size(), pool_.worker_count() + 1, [&](std::size_t t) {
        Prepared& p = prepared[tasks[t].request];
        const std::size_t u = tasks[t].unique;
        const EvalRequest& request = batch[tasks[t].request];
        if (request.cancel && request.cancel->cancelled()) {
          // Deadline expired mid-batch: skip the solve so an abandoned
          // request stops consuming pool time.
          p.errors[u] = api::Status::cancelled("request cancelled");
          return;
        }
        obs::TraceContext::Scoped solve_span(request.trace.get(),
                                             obs::Stage::Solve);
        try {
          p.values[u] = p.handle->evaluate(p.unique[u]);
        } catch (const la::SingularMatrixError& e) {
          p.errors[u] = api::Status::numerical_error(e.what());
        } catch (const std::exception& e) {
          p.errors[u] = api::Status::internal(e.what());
        }
      });

  std::vector<api::Expected<EvalResponse>> out;
  out.reserve(batch.size());
  for (std::size_t r = 0; r < batch.size(); ++r) {
    Prepared& p = prepared[r];
    if (!p.status.is_ok()) {
      out.emplace_back(p.status);
      continue;
    }
    if (batch[r].cancel && batch[r].cancel->cancelled()) {
      // Report cancellation deterministically even when some points had
      // already been evaluated (or failed) before the token flipped.
      out.emplace_back(api::Status::cancelled("request cancelled"));
      continue;
    }
    const auto failed =
        std::find_if(p.errors.begin(), p.errors.end(),
                     [](const auto& e) { return e.has_value(); });
    if (failed != p.errors.end()) {
      out.emplace_back(**failed);
      continue;
    }
    p.response.values.reserve(p.scatter.size());
    for (const std::size_t u : p.scatter) {
      p.response.values.push_back(p.values[u]);
    }
    out.emplace_back(std::move(p.response));
  }
  return out;
}

api::Expected<EvalResponse> ServingEngine::evaluate(
    const EvalRequest& request) const {
  return std::move(evaluate(std::vector<EvalRequest>{request}).front());
}

}  // namespace mfti::serving
