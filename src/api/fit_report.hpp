/// \file fit_report.hpp
/// \brief The unified fit output: the fitted model plus normalized
/// order/singular-value/timing fields and per-algorithm diagnostics.

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "api/fit_request.hpp"
#include "loewner/tangential.hpp"
#include "statespace/descriptor.hpp"
#include "statespace/pole_residue.hpp"

namespace mfti::api {

/// Diagnostics specific to Algorithm 2 (recursive MFTI).
struct RecursiveDiagnostics {
  /// Units consumed, in insertion order (unit u covers the 2u-th and
  /// (2u+1)-th frequency sample).
  std::vector<std::size_t> used_units;
  /// Mean remaining-sample tangential error after each iteration.
  std::vector<la::Real> mean_error_history;
  std::size_t iterations = 0;
  /// True when the threshold was reached before the data ran out.
  bool converged = false;
  /// True when a user-supplied `should_stop` hook ended the fit early (the
  /// model is the partial fit of the units consumed so far). Request-token
  /// cancellation never reaches a report — it returns
  /// `StatusCode::Cancelled` instead.
  bool stopped_early = false;
};

/// Diagnostics specific to the vector-fitting baseline.
struct VectorFittingDiagnostics {
  /// The fitted common-pole rational model (the state-space model in the
  /// report is its block realization).
  ss::PoleResidueModel pole_residue;
  /// Number of poles in the final model.
  std::size_t num_poles = 0;
  /// False when the sigma system was unidentifiable and relocation was
  /// skipped (see `vf::VectorFittingResult::sigma_identifiable`).
  bool sigma_identifiable = true;
  /// RMS absolute fit error over all entries and frequencies.
  la::Real rms_fit_error = 0.0;
};

/// Normalized result of `Fitter::fit`, whichever strategy ran.
struct FitReport {
  Algorithm algorithm = Algorithm::Mfti;
  /// The fitted real descriptor model. For vector fitting this is the block
  /// state-space realization of the pole-residue model in the diagnostics.
  ss::DescriptorSystem model;
  /// State-space order of `model` (equals the Loewner truncation rank for
  /// the interpolation strategies).
  std::size_t order = 0;
  /// Singular values that drove the order selection; empty for vector
  /// fitting, which selects no order.
  std::vector<la::Real> singular_values;
  /// Wall-clock fit time in seconds (`metrics::Stopwatch` around the whole
  /// strategy run, validation included).
  double seconds = 0.0;
  /// Tangential data the model was built from (Loewner strategies only).
  std::optional<loewner::TangentialData> tangential;
  /// Filled iff `algorithm == Algorithm::RecursiveMfti`.
  std::optional<RecursiveDiagnostics> recursive;
  /// Filled iff `algorithm == Algorithm::VectorFitting`.
  std::optional<VectorFittingDiagnostics> vector_fitting;
};

}  // namespace mfti::api
