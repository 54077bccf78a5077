// Model zoo: operate a fleet of macromodels behind one serving stack.
//
//   1. queue two fits — different strategies, same pipeline — on the
//      serving::AsyncFitter; each auto-publishes into the ModelRegistry
//      the moment it succeeds, while the main thread stays free to serve,
//   2. route batched queries to both models through one ServingEngine
//      (shared thread pool, in-batch dedup),
//   3. refit one model in the background and republish: in-flight queries
//      on the old snapshot finish untouched, new requests see version 2,
//      and rollback brings version 1 back if the refit disappoints.
//
// Build & run:  ./examples/model_zoo

#include <cstdio>

#include "api/api.hpp"
#include "metrics/error.hpp"
#include "sampling/grid.hpp"
#include "sampling/sampler.hpp"
#include "serving/serving.hpp"
#include "statespace/random_system.hpp"

int main() {
  using namespace mfti;

  // --- the "devices": two black boxes measured at different ports ----------
  la::Rng rng(42);
  ss::RandomSystemOptions opts_a;
  opts_a.order = 16;
  opts_a.num_outputs = 4;
  opts_a.num_inputs = 4;
  opts_a.rank_d = 4;
  const ss::DescriptorSystem device_a = ss::random_stable_mimo(opts_a, rng);
  ss::RandomSystemOptions opts_b;
  opts_b.order = 12;
  opts_b.num_outputs = 2;
  opts_b.num_inputs = 2;
  opts_b.rank_d = 2;
  const ss::DescriptorSystem device_b = ss::random_stable_mimo(opts_b, rng);

  const auto samples_a =
      sampling::sample_system(device_a, sampling::log_grid(10.0, 1e5, 8));
  const auto samples_b =
      sampling::sample_system(device_b, sampling::log_grid(10.0, 1e5, 24));

  // --- 1. async fit pipeline: fit in the background, publish on success ----
  serving::ModelRegistry registry;
  serving::AsyncFitter fits(registry);

  api::FitRequest fit_a;
  fit_a.samples = samples_a;
  fit_a.strategy = api::MftiStrategy{};  // Algorithm 1 of the paper
  auto done_a = fits.submit(std::move(fit_a), "filter");

  api::FitRequest fit_b;
  fit_b.samples = samples_b;
  mfti::vf::VectorFittingOptions vf_opts;
  vf_opts.num_poles = 12;
  vf_opts.iterations = 5;
  fit_b.strategy = api::VectorFittingStrategy{vf_opts};  // baseline fitter
  auto done_b = fits.submit(std::move(fit_b), "link");

  const auto report_a = done_a.get();
  const auto report_b = done_b.get();
  if (!report_a || !report_b) {
    std::printf("fit failed: %s / %s\n",
                report_a.status().to_string().c_str(),
                report_b.status().to_string().c_str());
    return 1;
  }

  for (const auto& info : registry.list()) {
    std::printf("zoo: '%s' v%llu  order %zu, %zux%zu, fitted in %.3f s\n",
                info.name.c_str(),
                static_cast<unsigned long long>(info.version), info.order,
                info.num_outputs, info.num_inputs, info.fit_seconds);
  }

  // --- 2. serve both through one engine ------------------------------------
  serving::ServingEngine engine(registry);
  const auto grid = sampling::log_grid(10.0, 1e5, 40);
  std::vector<serving::EvalRequest> batch;
  for (const auto& name : {"filter", "link"}) {
    serving::EvalRequest request;
    request.model = name;
    for (double f : grid) {
      request.points.emplace_back(0.0, 2.0 * std::numbers::pi * f);
    }
    batch.push_back(std::move(request));
  }
  for (int round = 0; round < 3; ++round) {
    for (const auto& response : engine.evaluate(batch)) {
      if (!response) {
        std::printf("query failed: %s\n",
                    response.status().to_string().c_str());
        return 1;
      }
    }
  }
  std::printf("served %d rounds x %zu points x %zu models on %zu workers\n",
              3, grid.size(), registry.size(), engine.worker_count());

  // --- 3. refit + republish + rollback --------------------------------------
  api::FitRequest refit;
  refit.samples =
      sampling::sample_system(device_a, sampling::log_grid(10.0, 1e5, 12));
  auto done_refit = fits.submit(std::move(refit), "filter");
  if (!done_refit.get()) return 1;
  std::printf("republished 'filter' as v%llu; err = %.2e\n",
              static_cast<unsigned long long>(registry.info("filter")->version),
              metrics::model_error(registry.lookup("filter")->model(),
                                   samples_a));
  if (const auto rolled = registry.rollback("filter")) {
    std::printf("rolled 'filter' back to v%llu\n",
                static_cast<unsigned long long>(*rolled));
  }
  return 0;
}
