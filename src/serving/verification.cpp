#include "serving/verification.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "api/passivity.hpp"
#include "linalg/eig.hpp"
#include "linalg/matrix.hpp"
#include "metrics/error.hpp"
#include "util/knobs.hpp"

namespace mfti::serving {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

VerificationCheck check_passivity(const VerificationOptions& opts,
                                  const ss::DescriptorSystem& model) {
  VerificationCheck check;
  check.name = "passivity";
  check.threshold = 1.0 + opts.passivity_tolerance;
  const Clock::time_point start = Clock::now();
  ss::PassivityScanOptions scan;
  scan.grid_points = opts.grid_points;
  scan.tolerance = opts.passivity_tolerance;
  auto violations = api::scattering_passivity_violations(
      model, opts.band_lo_hz, opts.band_hi_hz, scan);
  check.seconds = seconds_since(start);
  if (!violations) {
    // The scan could not run (bad band, solver failure): a failed check
    // with the cause attached — never an exception out of the caller.
    check.passed = false;
    check.status = violations.status();
    check.detail = "passivity: scan failed: " + violations.status().message();
    return check;
  }
  if (violations->empty()) {
    check.passed = true;
    check.value = 0.0;
    check.detail = "passivity: no violation in [" +
                   format_double(opts.band_lo_hz) + ", " +
                   format_double(opts.band_hi_hz) + "] Hz";
    return check;
  }
  double worst_norm = 0.0;
  double worst_f = 0.0;
  for (const ss::PassivityViolation& v : *violations) {
    if (v.worst_norm > worst_norm) {
      worst_norm = v.worst_norm;
      worst_f = v.worst_f_hz;
    }
  }
  check.passed = false;
  check.value = worst_norm;
  check.detail = "passivity: " + std::to_string(violations->size()) +
                 " violation band(s); worst sigma_max " +
                 format_double(worst_norm) + " at " + format_double(worst_f) +
                 " Hz in [" + format_double(opts.band_lo_hz) + ", " +
                 format_double(opts.band_hi_hz) + "] Hz";
  return check;
}

VerificationCheck check_stability(const VerificationOptions& opts,
                                  const ss::DescriptorSystem& model) {
  VerificationCheck check;
  check.name = "stability";
  check.threshold = -opts.stability_margin;
  const Clock::time_point start = Clock::now();
  try {
    // Finite pencil eigenvalues only (infinite ones are filtered inside).
    const std::vector<la::Complex> eigenvalues =
        la::generalized_eigenvalues(model.a, model.e);
    check.seconds = seconds_since(start);
    double max_re = -std::numeric_limits<double>::infinity();
    for (const la::Complex& lambda : eigenvalues) {
      if (lambda.real() > max_re) max_re = lambda.real();
    }
    check.value = eigenvalues.empty() ? 0.0 : max_re;
    check.passed = eigenvalues.empty() || max_re < -opts.stability_margin;
    check.detail =
        check.passed
            ? "stability: max Re(lambda) " + format_double(check.value)
            : "stability: eigenvalue with Re(lambda) " +
                  format_double(max_re) + " >= " +
                  format_double(-opts.stability_margin);
  } catch (const std::exception& e) {
    check.seconds = seconds_since(start);
    check.passed = false;
    check.status =
        api::Status::numerical_error(std::string("stability: ") + e.what());
    check.detail = "stability: eigenvalue computation failed: " +
                   std::string(e.what());
  }
  return check;
}

VerificationCheck check_fit_error(const VerificationOptions& opts,
                                  const ss::DescriptorSystem& model,
                                  const sampling::SampleSet& held_out) {
  VerificationCheck check;
  check.name = "fit_error";
  check.threshold = opts.max_fit_error;
  const Clock::time_point start = Clock::now();
  try {
    const double err = metrics::model_error(model, held_out);
    check.seconds = seconds_since(start);
    check.value = err;
    check.passed = err <= opts.max_fit_error;
    check.detail =
        "fit_error: ERR " + format_double(err) +
        (check.passed ? " <= " : " > ") + format_double(opts.max_fit_error) +
        " over " + std::to_string(held_out.size()) + " held-out samples";
  } catch (const std::exception& e) {
    check.seconds = seconds_since(start);
    check.passed = false;
    check.status =
        api::Status::numerical_error(std::string("fit_error: ") + e.what());
    check.detail =
        "fit_error: evaluation failed: " + std::string(e.what());
  }
  return check;
}

}  // namespace

std::string VerificationReport::summary() const {
  if (passed) return "verified";
  std::string out;
  for (const VerificationCheck& check : checks) {
    if (check.passed) continue;
    if (!out.empty()) out += "; ";
    out += check.detail;
  }
  return out.empty() ? "verification failed" : out;
}

VerificationPolicy::VerificationPolicy(VerificationOptions opts)
    : opts_(opts) {}

VerificationReport VerificationPolicy::verify(
    const ss::DescriptorSystem& model,
    const sampling::SampleSet* held_out) const noexcept {
  VerificationReport report;
  try {
    if (opts_.check_passivity) {
      report.checks.push_back(check_passivity(opts_, model));
    }
    if (opts_.check_stability) {
      report.checks.push_back(check_stability(opts_, model));
    }
    if (opts_.max_fit_error > 0.0 && held_out != nullptr &&
        !held_out->empty()) {
      report.checks.push_back(check_fit_error(opts_, model, *held_out));
    }
  } catch (const std::exception& e) {
    // Allocation failure or a check helper leaking an exception: record it
    // as a failed check rather than terminating a fit worker.
    VerificationCheck check;
    check.name = "policy";
    check.passed = false;
    check.status = api::Status::internal(e.what());
    check.detail = std::string("verification aborted: ") + e.what();
    report.checks.push_back(std::move(check));
  }
  for (const VerificationCheck& check : report.checks) {
    if (!check.passed) {
      report.passed = false;
      break;
    }
  }
  return report;
}

std::optional<VerificationPolicy> verification_policy_from_env() {
  bool enabled = false;
  util::env_knob("MFTI_VERIFY", &enabled);
  if (!enabled) return std::nullopt;
  VerificationOptions opts;
  util::env_knob("MFTI_VERIFY_PASSIVITY", &opts.check_passivity);
  util::env_knob("MFTI_VERIFY_BAND_LO_HZ", &opts.band_lo_hz);
  util::env_knob("MFTI_VERIFY_BAND_HI_HZ", &opts.band_hi_hz);
  util::env_knob("MFTI_VERIFY_GRID_POINTS", &opts.grid_points);
  util::env_knob("MFTI_VERIFY_TOLERANCE", &opts.passivity_tolerance);
  util::env_knob("MFTI_VERIFY_STABILITY", &opts.check_stability);
  util::env_knob("MFTI_VERIFY_STABILITY_MARGIN", &opts.stability_margin);
  util::env_knob("MFTI_VERIFY_MAX_FIT_ERROR", &opts.max_fit_error);
  return VerificationPolicy(opts);
}

}  // namespace mfti::serving
