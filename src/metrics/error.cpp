#include "metrics/error.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "linalg/norms.hpp"
#include "statespace/response.hpp"

namespace mfti::metrics {

namespace {

void check_ports(std::size_t outputs, std::size_t inputs,
                 const sampling::SampleSet& data) {
  if (data.empty()) {
    throw std::invalid_argument("per_sample_errors: empty data set");
  }
  if (outputs != data.num_outputs() || inputs != data.num_inputs()) {
    throw std::invalid_argument("per_sample_errors: port dimension mismatch");
  }
}

// err_i of the responses `h`, one per sample of `data`.
std::vector<Real> relative_errors(const std::vector<la::CMat>& h,
                                  const sampling::SampleSet& data) {
  std::vector<Real> err;
  err.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Real denom = la::two_norm(data[i].s);
    const Real num = la::two_norm(h[i] - data[i].s);
    err.push_back(denom > 0.0 ? num / denom : num);
  }
  return err;
}

}  // namespace

std::vector<Real> per_sample_errors(const ss::DescriptorSystem& model,
                                    const sampling::SampleSet& data) {
  check_ports(model.num_outputs(), model.num_inputs(), data);
  return relative_errors(ss::frequency_response(model, data.frequencies()),
                         data);
}

Real aggregate_error(const std::vector<Real>& per_sample) {
  if (per_sample.empty()) {
    throw std::invalid_argument("aggregate_error: empty error vector");
  }
  Real s = 0.0;
  for (Real e : per_sample) s += e * e;
  return std::sqrt(s) / std::sqrt(static_cast<Real>(per_sample.size()));
}

Real model_error(const ss::DescriptorSystem& model,
                 const sampling::SampleSet& data) {
  return aggregate_error(per_sample_errors(model, data));
}

Real model_error(const ss::PoleResidueModel& model,
                 const sampling::SampleSet& data) {
  check_ports(model.num_outputs(), model.num_inputs(), data);
  std::vector<la::CMat> h;
  h.reserve(data.size());
  for (const sampling::FrequencySample& smp : data) {
    const la::Complex s(0.0, 2.0 * std::numbers::pi * smp.f_hz);
    h.push_back(model.evaluate(s));
  }
  return aggregate_error(relative_errors(h, data));
}

Real max_error(const ss::DescriptorSystem& model,
               const sampling::SampleSet& data) {
  const std::vector<Real> err = per_sample_errors(model, data);
  return *std::max_element(err.begin(), err.end());
}

}  // namespace mfti::metrics
