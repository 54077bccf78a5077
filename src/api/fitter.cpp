#include "api/fitter.hpp"

#include <exception>
#include <stdexcept>
#include <utility>
#include <variant>

#include "core/mfti.hpp"
#include "core/recursive_mfti.hpp"
#include "linalg/matrix.hpp"
#include "loewner/realization.hpp"
#include "loewner/tangential.hpp"
#include "metrics/stopwatch.hpp"
#include "vf/vector_fitting.hpp"
#include "vfti/vfti.hpp"

namespace mfti::api {

namespace {

void report_progress(const FitRequest& req, std::string_view stage,
                     std::size_t iteration = 0, la::Real detail = 0.0) {
  if (req.progress) {
    req.progress({algorithm_of(req.strategy), stage, iteration, detail});
  }
}

Status cancelled_status(const FitRequest& req, std::string_view where) {
  return Status::cancelled(std::string(algorithm_name(algorithm_of(
                               req.strategy))) +
                           " fit cancelled " + std::string(where));
}

// One `run` per strategy. Each receives the full request (options, exec,
// progress, cancellation); the facade has already validated the samples
// and checked the token, and stamps `seconds` afterwards.

// Algorithm 1 as two checkpointed stages. Same calls, same option
// propagation and same RNG streams as `core::mfti_fit`, so the model is
// identical to the legacy entry point.
Expected<FitReport> run(const FitRequest& req, const MftiStrategy& strategy) {
  core::MftiOptions opts = strategy.options;
  opts.exec = parallel::propagate_exec(opts.exec, req.exec);

  report_progress(req, "tangential-data");
  loewner::TangentialData data =
      loewner::build_tangential_data(req.samples, opts.data, opts.exec);
  if (req.cancel.cancelled()) {
    return cancelled_status(req, "before realization");
  }

  report_progress(req, "realization");
  loewner::RealizationOptions ropts = opts.realization;
  ropts.exec = parallel::propagate_exec(ropts.exec, opts.exec);
  loewner::Realization real = loewner::realize(data, ropts);

  FitReport report;
  report.algorithm = Algorithm::Mfti;
  report.model = std::move(real.model);
  report.order = real.order;
  report.singular_values = std::move(real.singular_values);
  report.tangential = std::move(data);
  return report;
}

Expected<FitReport> run(const FitRequest& req,
                        const RecursiveMftiStrategy& strategy) {
  core::RecursiveMftiOptions opts = strategy.options;
  opts.exec = parallel::propagate_exec(opts.exec, req.exec);
  // The request token always stops the fit, alongside any user-set hook.
  opts.should_stop = [token = req.cancel,
                      user = std::move(opts.should_stop)] {
    return token.cancelled() || (user && user());
  };
  if (!opts.on_iteration && req.progress) {
    opts.on_iteration = [&req](std::size_t iteration, la::Real mean_error) {
      report_progress(req, "iteration", iteration, mean_error);
    };
  }

  core::RecursiveMftiResult result =
      core::recursive_mfti_fit(req.samples, opts);
  if (result.cancelled && req.cancel.cancelled()) {
    return Status::cancelled("recursive-mfti fit cancelled after " +
                             std::to_string(result.iterations) +
                             " iteration(s)");
  }
  // A user-supplied should_stop keeps the legacy contract: the partial
  // model of the units consumed so far is a successful result.

  FitReport report;
  report.algorithm = Algorithm::RecursiveMfti;
  report.model = std::move(result.model);
  report.order = result.order;
  report.singular_values = std::move(result.singular_values);
  report.recursive = RecursiveDiagnostics{
      std::move(result.used_units), std::move(result.mean_error_history),
      result.iterations, result.converged, result.cancelled};
  return report;
}

// VFTI as the same two checkpointed stages (it is the t = 1 restriction of
// MFTI); mirrors `vfti::vfti_fit` call for call.
Expected<FitReport> run(const FitRequest& req, const VftiStrategy& strategy) {
  const vfti::VftiOptions& opts = strategy.options;
  loewner::TangentialOptions data_opts;
  data_opts.uniform_t = 1;  // the defining restriction of VFTI
  data_opts.directions = opts.directions;
  data_opts.seed = opts.seed;

  report_progress(req, "tangential-data");
  loewner::TangentialData data =
      loewner::build_tangential_data(req.samples, data_opts, req.exec);
  if (req.cancel.cancelled()) {
    return cancelled_status(req, "before realization");
  }

  report_progress(req, "realization");
  loewner::RealizationOptions ropts = opts.realization;
  ropts.exec = parallel::propagate_exec(ropts.exec, req.exec);
  loewner::Realization real = loewner::realize(data, ropts);

  FitReport report;
  report.algorithm = Algorithm::Vfti;
  report.model = std::move(real.model);
  report.order = real.order;
  report.singular_values = std::move(real.singular_values);
  report.tangential = std::move(data);
  return report;
}

Expected<FitReport> run(const FitRequest& req,
                        const VectorFittingStrategy& strategy) {
  const vf::VectorFittingOptions& opts = strategy.options;
  report_progress(req, "pole-relocation");
  vf::VectorFittingResult result = vf::vector_fit(req.samples, opts);

  FitReport report;
  report.algorithm = Algorithm::VectorFitting;
  report.model = result.model.to_state_space();
  report.order = report.model.order();
  report.vector_fitting = VectorFittingDiagnostics{
      std::move(result.model), result.order, result.sigma_identifiable,
      result.rms_fit_error};
  return report;
}

}  // namespace

std::string_view algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::Mfti:
      return "mfti";
    case Algorithm::RecursiveMfti:
      return "recursive-mfti";
    case Algorithm::Vfti:
      return "vfti";
    case Algorithm::VectorFitting:
      return "vector-fitting";
  }
  return "unknown";
}

Expected<FitReport> Fitter::fit(const FitRequest& request) const {
  const metrics::Stopwatch stopwatch;
  if (request.cancel.cancelled()) {
    return cancelled_status(request, "before it started");
  }
  if (request.samples.empty()) {
    return Status::invalid_argument("FitRequest: empty sample set");
  }
  try {
    Expected<FitReport> report = std::visit(
        [&request](const auto& strategy) { return run(request, strategy); },
        request.strategy);
    if (report) {
      report->seconds = stopwatch.seconds();
      report_progress(request, "done", 0,
                      static_cast<la::Real>(report->seconds));
    }
    return report;
  } catch (const la::SingularMatrixError& e) {
    return Status::numerical_error(e.what());
  } catch (const std::invalid_argument& e) {
    return Status::invalid_argument(e.what());
  } catch (const std::exception& e) {
    return Status::internal(e.what());
  }
}

Expected<FitReport> Fitter::fit(sampling::SampleSet samples,
                                Strategy strategy) const {
  FitRequest request;
  request.samples = std::move(samples);
  request.strategy = std::move(strategy);
  return fit(request);
}

}  // namespace mfti::api
