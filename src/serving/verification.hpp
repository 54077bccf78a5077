/// \file verification.hpp
/// \brief Publish-time model verification: the gate between "the fit
/// converged" and "the fleet serves it".
///
/// Loewner/VF macromodels match their data but carry no passivity or
/// stability guarantee, and a non-passive multi-port model can blow up a
/// customer's transient simulation. `VerificationPolicy` runs the
/// standard post-fit checks as one structured, *never-throwing* pass:
///
///   passivity   scattering scan over a configured band
///               (`api::scattering_passivity_violations`, the
///               `Status`-returning wrapper — a bad band becomes a failed
///               check, never an exception out of a fit worker)
///   stability   all finite eigenvalues of the pencil `(A, E)` strictly
///               in the left half-plane (margin configurable)
///   fit_error   the paper's `ERR` against held-out samples under a
///               threshold (skipped when no samples are supplied)
///
/// Each check yields a `VerificationCheck` (pass/fail, measured value,
/// threshold, wall time); the `VerificationReport` aggregates them. A
/// check that cannot run (solver failure, bad options) *fails* with its
/// `Status` attached — a model is promoted only on positive evidence.
///
/// `ModelRegistry` runs the policy inside `publish` when one is installed
/// (`ModelRegistryOptions::verification`); failures land the model in the
/// quarantine store instead of the live map (model_registry.hpp). The
/// `MFTI_VERIFY_*` environment knobs (docs/operations.md) configure the
/// policy for `mfti_serve` / `mfti_client` without a rebuild.

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "sampling/dataset.hpp"
#include "statespace/descriptor.hpp"

namespace mfti::serving {

struct VerificationOptions {
  /// Run the scattering-passivity scan.
  bool check_passivity = true;
  /// Band scanned for `sigma_max(H(j 2 pi f)) > 1 + tolerance`.
  double band_lo_hz = 1.0;
  double band_hi_hz = 1e9;
  /// Coarse log-grid resolution of the scan.
  std::size_t grid_points = 200;
  /// Violation threshold above 1.
  double passivity_tolerance = 1e-6;
  /// Require every finite pencil eigenvalue at `Re(lambda) < -margin`.
  bool check_stability = true;
  double stability_margin = 0.0;
  /// Fail when the paper's `ERR` against the held-out samples exceeds
  /// this; 0 disables the check. Only runs when samples are supplied.
  double max_fit_error = 0.0;
};

/// One check's structured outcome.
struct VerificationCheck {
  std::string name;  ///< "passivity" | "stability" | "fit_error"
  bool passed = false;
  /// Non-OK when the check could not run at all (counts as failed: a
  /// model is promoted only on positive evidence).
  api::Status status;
  /// The measured quantity: worst `sigma_max` (passivity), largest
  /// `Re(lambda)` (stability), `ERR` (fit_error).
  double value = 0.0;
  double threshold = 0.0;
  std::string detail;    ///< human-readable one-liner
  double seconds = 0.0;  ///< wall time of this check
};

/// Aggregate of one verification pass. Persisted with a quarantined model
/// (registry_journal.hpp) so an operator can inspect *why* after a
/// restart.
struct VerificationReport {
  bool passed = true;  ///< every executed check passed
  std::vector<VerificationCheck> checks;
  /// "passivity: worst sigma_max 1.84 > 1+1e-06 in [1, 1e+09] Hz; ..."
  /// — the failed checks' details joined, or "verified" when passed.
  std::string summary() const;
};

/// Configurable, never-throwing post-fit verification. Stateless after
/// construction; safe to share across threads.
class VerificationPolicy {
 public:
  VerificationPolicy() = default;
  explicit VerificationPolicy(VerificationOptions opts);

  /// Run every enabled check against `model`; `held_out` (may be null)
  /// enables the fit-error check. Never throws.
  VerificationReport verify(const ss::DescriptorSystem& model,
                            const sampling::SampleSet* held_out =
                                nullptr) const noexcept;

  const VerificationOptions& options() const { return opts_; }

 private:
  VerificationOptions opts_;
};

/// The daemon-side switch: nullopt (gate off) unless `MFTI_VERIFY` is
/// true (`1`/`on`/`true`/`yes`); then a policy whose defaults are
/// overridden by `MFTI_VERIFY_PASSIVITY`, `MFTI_VERIFY_BAND_LO_HZ`,
/// `MFTI_VERIFY_BAND_HI_HZ`, `MFTI_VERIFY_GRID_POINTS`,
/// `MFTI_VERIFY_TOLERANCE`, `MFTI_VERIFY_STABILITY`,
/// `MFTI_VERIFY_STABILITY_MARGIN` and `MFTI_VERIFY_MAX_FIT_ERROR`
/// (malformed values are diagnosed on stderr and ignored). `mfti_serve`
/// installs the result into its registry so a deployment turns verified
/// publishing on without a rebuild.
std::optional<VerificationPolicy> verification_policy_from_env();

}  // namespace mfti::serving
