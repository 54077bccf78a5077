// The benchmark fleet (paper Example 2 PDN plus four RLC interconnects),
// the traced split of an MFTI fit, and the response checker.

#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "api/api.hpp"
#include "loewner/matrices.hpp"
#include "loewner/realization.hpp"
#include "loewner/tangential.hpp"
#include "net/json.hpp"
#include "netgen/pdn.hpp"
#include "netgen/rlc.hpp"
#include "perfbench.hpp"
#include "sampling/grid.hpp"
#include "sampling/noise.hpp"
#include "serving/model_registry.hpp"
#include "statespace/response.hpp"

namespace perfbench {

namespace api = mfti::api;
namespace la = mfti::la;
namespace loewner = mfti::loewner;
namespace netgen = mfti::netgen;
namespace serving = mfti::serving;

mfti::serving::VerificationOptions gate_options() {
  serving::VerificationOptions opts;
  opts.band_lo_hz = 1e6;
  opts.band_hi_hz = 1e9;
  opts.passivity_tolerance = 0.02;
  return opts;
}

namespace {

/// The board and its noise-free sampling, built once per process.
struct Pdn {
  netgen::Circuit circuit;
  sampling::SampleSet clean;
  sampling::SampleSet held_out;
};

const Pdn& pdn() {
  static const Pdn board = [] {
    la::Rng rng(2024);
    netgen::Circuit circuit =
        netgen::make_pdn_circuit(netgen::PdnOptions{}, rng);
    const std::vector<double> freqs = sampling::linear_grid(1e6, 1e9, 120);
    std::vector<double> mid;
    for (std::size_t i = 0; i + 1 < freqs.size(); ++i) {
      mid.push_back(0.5 * (freqs[i] + freqs[i + 1]));
    }
    sampling::SampleSet clean =
        netgen::sample_s_parameters(circuit, freqs, 50.0, 1e7);
    sampling::SampleSet held_out =
        netgen::sample_s_parameters(circuit, mid, 50.0, 1e7);
    return Pdn{std::move(circuit), std::move(clean), std::move(held_out)};
  }();
  return board;
}

}  // namespace

sampling::SampleSet pdn_measurement(std::uint64_t noise_seed) {
  la::Rng noise(noise_seed);
  return sampling::add_noise(pdn().clean, 1e-3, noise);
}

const sampling::SampleSet& pdn_held_out() { return pdn().held_out; }

mfti::core::MftiOptions pdn_fit_options() {
  mfti::core::MftiOptions opts;
  opts.data.uniform_t = 3;
  opts.realization.selection = loewner::OrderSelection::Tolerance;
  opts.realization.rank_tol = 1e-2;
  return opts;
}

const FleetModel& Fleet::get(const std::string& name) const {
  for (const FleetModel& m : models) {
    if (m.name == name) return m;
  }
  throw std::invalid_argument("no fleet model " + name);
}

Fleet build_fleet(const std::string& dir) {
  serving::ModelRegistryOptions registry_opts;
  registry_opts.verification =
      std::make_shared<const serving::VerificationPolicy>(gate_options());
  auto registry = serving::ModelRegistry::open(dir, registry_opts);
  if (!registry) {
    throw std::runtime_error("cannot open fleet registry: " +
                             registry.status().to_string());
  }
  Fleet fleet;
  fleet.dir = dir;
  const api::Fitter fitter;
  const auto publish = [&](const std::string& name,
                           const sampling::SampleSet& samples,
                           const mfti::core::MftiOptions& opts,
                           std::vector<double> grid) {
    auto report = fitter.fit(samples, api::MftiStrategy{opts});
    if (!report) {
      throw std::runtime_error(name + " fit failed: " +
                               report.status().to_string());
    }
    const serving::PublishResult published = (*registry)->publish(
        name, std::make_shared<const api::ModelHandle>(report->model),
        api::Algorithm::Mfti, report->seconds);
    if (published.quarantined) {
      throw std::runtime_error(name + " quarantined by the gate: " +
                               published.verification.summary());
    }
    fleet.models.push_back({name, published.version, samples.num_outputs(),
                            std::move(grid), std::move(report->model)});
  };

  // Paper Example 2, as in examples/pdn_macromodel.cpp (noise seed 99).
  publish("pdn", pdn_measurement(99), pdn_fit_options(),
          sampling::log_grid(1e6, 1e9, 16));
  // Interconnects: 10..13-section ladders (orders 23..29). Longer ladders
  // overshoot the passivity gate in band.
  const std::vector<double> ic_freqs = sampling::log_grid(1e7, 2e10, 60);
  for (std::size_t i = 0; i < 4; ++i) {
    const ss::DescriptorSystem ladder = netgen::rlc_ladder(10 + i);
    publish("ic" + std::to_string(i),
            netgen::sample_s_parameters(ladder, ic_freqs),
            mfti::core::MftiOptions{}, sampling::log_grid(1e7, 2e10, 32));
  }
  return fleet;
}

SplitFit split_fit(const sampling::SampleSet& samples,
                   const mfti::core::MftiOptions& opts) {
  // The option propagation of the facade's MFTI strategy, with the default
  // (serial) request policy.
  const mfti::parallel::ExecutionPolicy exec =
      mfti::parallel::propagate_exec(opts.exec, {});
  loewner::RealizationOptions ropts = opts.realization;
  ropts.exec = mfti::parallel::propagate_exec(ropts.exec, exec);

  SplitFit out;
  double t0 = now_s();
  const loewner::TangentialData data =
      loewner::build_tangential_data(samples, opts.data, exec);
  double t1 = now_s();
  const auto [ll, sll] = loewner::loewner_pair(data, ropts.exec);
  double t2 = now_s();
  loewner::Realization real = loewner::realize(data, ll, sll, ropts);
  double t3 = now_s();
  out.model = std::move(real.model);
  out.order = real.order;
  out.tangential_s = t1 - t0;
  out.assembly_s = t2 - t1;
  out.realize_s = t3 - t2;
  return out;
}

// --- response checker ------------------------------------------------------

std::string eval_response_body(const std::string& model,
                               std::uint64_t version,
                               std::size_t unique_points,
                               const std::vector<la::CMat>& values) {
  using mfti::net::Json;
  Json list = Json::array();
  for (const la::CMat& m : values) {
    Json value = Json::object();
    value.set("rows", Json(static_cast<double>(m.rows())));
    value.set("cols", Json(static_cast<double>(m.cols())));
    Json re = Json::array();
    Json im = Json::array();
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        re.push_back(Json(m(i, j).real()));
        im.push_back(Json(m(i, j).imag()));
      }
    }
    value.set("re", std::move(re));
    value.set("im", std::move(im));
    list.push_back(std::move(value));
  }
  Json entry = Json::object();
  entry.set("model", Json(model));
  entry.set("version", Json(static_cast<double>(version)));
  entry.set("unique_points", Json(static_cast<double>(unique_points)));
  entry.set("values", std::move(list));
  Json responses = Json::array();
  responses.push_back(std::move(entry));
  Json body = Json::object();
  body.set("responses", std::move(responses));
  return body.dump();
}

void ResponseChecker::add_version(const std::string& model,
                                  std::uint64_t version,
                                  ss::DescriptorSystem system) {
  versions_[model].insert_or_assign(version, std::move(system));
}

bool ResponseChecker::knows(const std::string& model,
                            std::uint64_t version) const {
  const auto it = versions_.find(model);
  return it != versions_.end() && it->second.count(version) > 0;
}

std::string ResponseChecker::check(std::string_view body,
                                   const std::string& model,
                                   const std::vector<double>& freqs_hz) const {
  using mfti::net::Json;
  auto parsed = mfti::net::parse_json(body);
  if (!parsed) return "response is not JSON";
  const Json* responses = parsed->find("responses");
  if (responses == nullptr || !responses->is_array() ||
      responses->size() != 1) {
    return "want exactly one response entry";
  }
  const Json& entry = responses->at(0);
  const Json* name = entry.find("model");
  if (name == nullptr || !name->is_string() || name->as_string() != model) {
    return "entry names the wrong model";
  }
  const Json* version = entry.find("version");
  if (version == nullptr || !version->is_number()) return "no version";
  const auto claimed = static_cast<std::uint64_t>(version->as_number());
  const auto models = versions_.find(model);
  if (models == versions_.end() || models->second.count(claimed) == 0) {
    return "claims unknown version " + std::to_string(claimed);
  }
  const ss::DescriptorSystem& system = models->second.at(claimed);
  const Json* values = entry.find("values");
  if (values == nullptr || values->size() != freqs_hz.size()) {
    return "want one value per frequency";
  }
  for (std::size_t k = 0; k < freqs_hz.size(); ++k) {
    const la::CMat ref = ss::transfer_function(
        system, la::Complex(0.0, 2.0 * std::numbers::pi * freqs_hz[k]));
    const Json& value = values->at(k);
    const Json* rows = value.find("rows");
    const Json* cols = value.find("cols");
    const Json* re = value.find("re");
    const Json* im = value.find("im");
    const std::size_t n = ref.rows() * ref.cols();
    if (rows == nullptr || cols == nullptr || re == nullptr || im == nullptr ||
        rows->as_number() != static_cast<double>(ref.rows()) ||
        cols->as_number() != static_cast<double>(ref.cols()) ||
        re->size() != n || im->size() != n) {
      return "value " + std::to_string(k) + " has the wrong shape";
    }
    double scale = 0.0;
    double worst = 0.0;
    for (std::size_t r = 0; r < ref.rows(); ++r) {
      for (std::size_t c = 0; c < ref.cols(); ++c) {
        const std::size_t flat = r * ref.cols() + c;
        const la::Complex served(re->at(flat).as_number(),
                                 im->at(flat).as_number());
        scale = std::max(scale, std::abs(ref(r, c)));
        worst = std::max(worst, std::abs(served - ref(r, c)));
      }
    }
    if (!(worst <= kValueRelTol * std::max(scale, 1e-300))) {
      return "value " + std::to_string(k) + " off by " +
             std::to_string(worst / std::max(scale, 1e-300)) +
             " (relative) from version " + std::to_string(claimed);
    }
  }
  return "";
}

}  // namespace perfbench
