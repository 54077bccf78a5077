/// \file error.hpp
/// \brief The paper's accuracy metrics (Section 5):
/// `err_i = ||H(j 2 pi f_i) - S(f_i)||_2 / ||S(f_i)||_2` and
/// `ERR = ||err||_2 / sqrt(k)`.

#pragma once

#include <vector>

#include "sampling/dataset.hpp"
#include "statespace/descriptor.hpp"
#include "statespace/pole_residue.hpp"

namespace mfti::metrics {

using la::Real;

/// Per-sample relative errors `err_i` of a model against a data set.
std::vector<Real> per_sample_errors(const ss::DescriptorSystem& model,
                                    const sampling::SampleSet& data);

/// The scalar `ERR = ||err||_2 / sqrt(k)` of the paper's Table 1.
Real aggregate_error(const std::vector<Real>& per_sample);

/// Convenience: per_sample_errors + aggregate_error in one call.
Real model_error(const ss::DescriptorSystem& model,
                 const sampling::SampleSet& data);

/// The same ERR for a pole-residue model, evaluated by its modal sum.
Real model_error(const ss::PoleResidueModel& model,
                 const sampling::SampleSet& data);

/// Worst per-sample relative error (useful in tests: noise-free recovery
/// should drive this to ~1e-10).
Real max_error(const ss::DescriptorSystem& model,
               const sampling::SampleSet& data);

}  // namespace mfti::metrics
