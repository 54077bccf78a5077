#include "api/model_handle.hpp"

#include <numbers>
#include <utility>

namespace mfti::api {

ModelHandle::ModelHandle(ss::DescriptorSystem model)
    : model_(std::move(model)) {
  model_.validate();
}

ModelHandle::ModelHandle(const FitReport& report)
    : ModelHandle(report.model) {}

std::vector<la::Complex> points_from_freqs_hz(
    const std::vector<la::Real>& freqs_hz) {
  std::vector<la::Complex> points;
  points.reserve(freqs_hz.size());
  for (const la::Real f : freqs_hz) {
    points.emplace_back(0.0, 2.0 * std::numbers::pi * f);
  }
  return points;
}

const ss::BatchEvaluator& ModelHandle::evaluator() const {
  std::call_once(evaluator_once_, [this] {
    evaluator_ = std::make_unique<const ss::BatchEvaluator>(model_);
  });
  return *evaluator_;
}

la::CMat ModelHandle::evaluate(la::Complex s) const {
  return evaluator().evaluate(s);
}

la::CMat ModelHandle::response_at(la::Real f_hz) const {
  return evaluate(la::Complex(0.0, 2.0 * std::numbers::pi * f_hz));
}

std::vector<la::CMat> ModelHandle::evaluate(
    const std::vector<la::Complex>& points,
    const parallel::ExecutionPolicy& exec) const {
  return evaluator().evaluate(points, exec);
}

std::vector<la::CMat> ModelHandle::sweep(
    const std::vector<la::Real>& freqs_hz,
    const parallel::ExecutionPolicy& exec) const {
  return evaluate(points_from_freqs_hz(freqs_hz), exec);
}

}  // namespace mfti::api
