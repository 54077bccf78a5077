/// \file fitter.hpp
/// \brief The unified entry point: one facade running any of the four
/// identification algorithms.
///
/// Where the legacy free functions (`core::mfti_fit`, ...) throw on bad
/// input and each return their own result struct, `Fitter::fit` validates
/// the request up front, catches numerical breakdowns, honours progress
/// callbacks and cancellation tokens, and normalizes every outcome into an
/// `Expected<FitReport>`:
///
/// ```cpp
/// api::Fitter fitter;
/// auto report = fitter.fit({samples, api::RecursiveMftiStrategy{opts}});
/// if (!report) { log(report.status().to_string()); return; }
/// serve(api::ModelHandle(*report));
/// ```

#pragma once

#include "api/fit_report.hpp"
#include "api/fit_request.hpp"
#include "api/status.hpp"

namespace mfti::api {

/// Facade over the algorithm family. Cheap to construct and copy; fits on
/// a const `Fitter` are safe to run concurrently.
class Fitter {
 public:
  /// Run the strategy tagged in `request.strategy` on `request.samples`.
  /// Never throws for anticipated failures: bad input, cancellation,
  /// numerical breakdown and escaped exceptions all come back as a non-ok
  /// status. Every strategy produces the model of its legacy entry point
  /// given the same options.
  Expected<FitReport> fit(const FitRequest& request) const;

  /// Convenience: fit `samples` with `strategy` and default policies.
  /// Taken by value — pass an rvalue (or std::move) to avoid copying the
  /// data set.
  Expected<FitReport> fit(sampling::SampleSet samples,
                          Strategy strategy = MftiStrategy{}) const;
};

}  // namespace mfti::api
