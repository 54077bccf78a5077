// Serving-path benchmark for api::ModelHandle: repeated frequency queries
// against a fitted macromodel, comparing
//
//   naive      - ss::transfer_function per query (promote + O(n^3) dense LU
//                each time)
//   evaluator  - a persistent ss::BatchEvaluator (Hessenberg–triangular
//                reduction once, O(n^2 m) solve per query)
//   handle     - api::ModelHandle (the same evaluator, built on the first
//                query)
//
// The workload models a service answering response queries over a
// frequency grid. Correctness is asserted, not assumed: every served
// matrix must match ss::transfer_function within 1e-12, and the handle
// must beat naive re-evaluation outright. Exits non-zero on any
// violation, so CI can run this as a smoke test.
//
// A second section measures the multi-model fleet path: N models
// round-robin through one serving::ServingEngine (shared pool, batch
// dedup) against the same queries issued directly to N independent
// ModelHandles. Engine responses must match the direct path within 1e-12;
// the timing rows land in the JSON trajectory.
//
// A third section measures durability: fitting and publishing the fleet
// into a journaled registry from scratch (cold fit) against rehydrating
// it with ModelRegistry::open (warm restart). Restored responses must be
// bitwise identical to the pre-restart ones.
//
// A fourth section is the query storm: N reader threads query one model
// through the engine while a publisher republishes alternating versions
// in a tight loop. Every response is verified bitwise against the
// reference of the version it claims (mixed-version responses are a hard
// failure); the single- vs multi-reader throughput ratio lands in the
// JSON trajectory as the lock-free-read scaling signal.
//
// A fifth section measures the request-tracing overhead on the engine
// path: the same fleet batches with no obs::TraceContext
// attached (the production default when MFTI_TRACE=0, and the fast path
// every untraced request takes) against the same batches carrying a live
// context that records every span. Both rows land in the JSON; when
// MFTI_TRACE_OVERHEAD_GATE is set (a max on/off ratio, e.g. 1.02), the
// ratio is enforced and the bench fails past it — unset, it only reports,
// so the ctest smoke run cannot flake on a loaded machine.
//
// Usage: bench_model_serving [rounds] [--json <path>]

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "bench_common.hpp"
#include "metrics/stopwatch.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sampling/grid.hpp"
#include "sampling/sampler.hpp"
#include "serving/serving.hpp"
#include "statespace/random_system.hpp"
#include "statespace/response.hpp"
#include "util/knobs.hpp"

namespace api = mfti::api;
namespace la = mfti::la;
namespace obs = mfti::obs;
namespace serving = mfti::serving;
namespace sp = mfti::sampling;
namespace ss = mfti::ss;

namespace {

double max_abs_diff(const la::CMat& a, const la::CMat& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = mfti::bench::parse_bench_args(argc, argv);
  const std::size_t rounds =
      static_cast<std::size_t>(args.positional_int(25));
  if (!args.valid) return 2;

  // A realistic serving model: fit a 16-port order-64 system with the
  // unified API, then serve its response.
  la::Rng rng(2026);
  ss::RandomSystemOptions sys_opts;
  sys_opts.order = 64;
  sys_opts.num_outputs = 16;
  sys_opts.num_inputs = 16;
  sys_opts.rank_d = 16;
  const ss::DescriptorSystem truth = ss::random_stable_mimo(sys_opts, rng);
  const sp::SampleSet data =
      sp::sample_system(truth, sp::log_grid(10.0, 1e5, 12));

  const auto report = api::Fitter().fit(data);
  if (!report) {
    std::printf("FIT FAILED: %s\n", report.status().to_string().c_str());
    return 1;
  }
  std::printf("model: order %zu, %zu ports, fitted in %.3f s\n",
              report->order, report->model.num_inputs(), report->seconds);

  const auto freqs = sp::log_grid(10.0, 1e5, 32);
  const std::size_t queries = rounds * freqs.size();

  // Reference + naive timing in one pass.
  std::vector<la::CMat> reference;
  reference.reserve(freqs.size());
  for (double f : freqs) {
    reference.push_back(ss::transfer_function(
        report->model, la::Complex(0.0, 2.0 * std::numbers::pi * f)));
  }
  mfti::metrics::Stopwatch sw;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (double f : freqs) {
      ss::transfer_function(report->model,
                            la::Complex(0.0, 2.0 * std::numbers::pi * f));
    }
  }
  const double t_naive = sw.seconds();

  const ss::BatchEvaluator evaluator(report->model);
  sw.reset();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (double f : freqs) {
      evaluator.evaluate(la::Complex(0.0, 2.0 * std::numbers::pi * f));
    }
  }
  const double t_eval = sw.seconds();

  const api::ModelHandle handle(*report);
  double worst = 0.0;
  sw.reset();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      worst = std::max(worst,
                       max_abs_diff(handle.response_at(freqs[i]),
                                    reference[i]));
    }
  }
  const double t_handle = sw.seconds();

  std::printf("\n%zu queries (%zu distinct frequencies x %zu rounds):\n",
              queries, freqs.size(), rounds);
  std::printf("  naive transfer_function : %8.3f ms\n", 1e3 * t_naive);
  std::printf("  persistent BatchEvaluator: %7.3f ms  (%.2fx)\n",
              1e3 * t_eval, t_naive / t_eval);
  std::printf("  ModelHandle             : %8.3f ms  (%.2fx)\n",
              1e3 * t_handle, t_naive / t_handle);
  std::printf("  worst |H_handle - H_naive| = %.2e\n", worst);

  bool ok = true;
  if (worst > 1e-12) {
    std::printf("FAIL: served response deviates from transfer_function\n");
    ok = false;
  }
  if (t_handle >= t_naive) {
    std::printf("FAIL: handle serving not faster than naive re-evaluation\n");
    ok = false;
  }

  // --- multi-model fleet: one engine vs N independent handles ---------------

  constexpr std::size_t kFleet = 4;
  std::vector<ss::DescriptorSystem> fleet;
  std::vector<std::string> names;
  serving::ModelRegistry registry;
  for (std::size_t m = 0; m < kFleet; ++m) {
    ss::RandomSystemOptions fleet_opts;
    fleet_opts.order = 48;
    fleet_opts.num_outputs = 8;
    fleet_opts.num_inputs = 8;
    fleet_opts.rank_d = 8;
    fleet.push_back(ss::random_stable_mimo(fleet_opts, rng));
    names.push_back("model-" + std::to_string(m));
    registry.publish(names.back(), std::make_shared<const api::ModelHandle>(
                                       fleet.back()));
  }
  std::deque<api::ModelHandle> independent;  // handles are not movable
  for (const auto& sys : fleet) independent.emplace_back(sys);

  serving::ServingEngine engine(registry);
  const auto fleet_freqs = sp::log_grid(10.0, 1e5, 24);
  std::vector<la::Complex> fleet_points;
  for (double f : fleet_freqs) {
    fleet_points.emplace_back(0.0, 2.0 * std::numbers::pi * f);
  }

  // Direct: every query against its own per-model handle, serially.
  sw.reset();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t m = 0; m < kFleet; ++m) {
      for (const la::Complex& s : fleet_points) {
        independent[m].evaluate(s);
      }
    }
  }
  const double t_direct = sw.seconds();

  // Engine: the same queries as round-robin batches through one router
  // (shared pool, in-batch dedup, one snapshot resolve per request).
  sw.reset();
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<serving::EvalRequest> batch;
    batch.reserve(kFleet);
    for (std::size_t m = 0; m < kFleet; ++m) {
      batch.push_back({names[m], fleet_points});
    }
    for (const auto& response : engine.evaluate(batch)) {
      if (!response) {
        std::printf("FAIL: engine: %s\n",
                    response.status().to_string().c_str());
        return 1;
      }
    }
  }
  const double t_engine = sw.seconds();

  // Parity pass outside the timed region (the extra direct evaluations
  // must not skew t_engine).
  double worst_engine = 0.0;
  {
    std::vector<serving::EvalRequest> batch;
    for (std::size_t m = 0; m < kFleet; ++m) {
      batch.push_back({names[m], fleet_points});
    }
    const auto responses = engine.evaluate(batch);
    for (std::size_t m = 0; m < kFleet; ++m) {
      if (!responses[m]) return 1;
      for (std::size_t i = 0; i < fleet_points.size(); ++i) {
        worst_engine = std::max(
            worst_engine,
            max_abs_diff(responses[m]->values[i],
                         independent[m].evaluate(fleet_points[i])));
      }
    }
  }

  std::printf("\nfleet: %zu models x %zu points x %zu rounds:\n", kFleet,
              fleet_points.size(), rounds);
  std::printf("  independent ModelHandles: %8.3f ms\n", 1e3 * t_direct);
  std::printf("  one ServingEngine       : %8.3f ms  (%.2fx, %zu workers)\n",
              1e3 * t_engine, t_direct / t_engine, engine.worker_count());
  std::printf("  worst |H_engine - H_direct| = %.2e\n", worst_engine);
  if (worst_engine > 1e-12) {
    std::printf("FAIL: engine deviates from direct handle evaluation\n");
    ok = false;
  }

  // --- durability: cold fit vs warm restart ---------------------------------
  //
  // Cold path: fit every fleet model from samples and publish it into a
  // durable (journaled) registry. Warm path: ModelRegistry::open replays
  // the journal back into a serving fleet. The ratio is the restart-time
  // win persistence buys; the restored answers must stay bitwise equal.

  const std::string fleet_dir = "bench_serving_fleet";
  std::filesystem::remove_all(fleet_dir);
  std::vector<sp::SampleSet> fleet_data;  // "measurements", not timed
  for (const auto& sys : fleet) {
    fleet_data.push_back(
        sp::sample_system(sys, sp::log_grid(10.0, 1e5, 16)));
  }
  std::vector<la::CMat> cold_responses;
  double t_cold = 0.0;
  {
    auto durable = serving::ModelRegistry::open(fleet_dir);
    if (!durable) {
      std::printf("FAIL: open: %s\n", durable.status().to_string().c_str());
      return 1;
    }
    sw.reset();
    for (std::size_t m = 0; m < kFleet; ++m) {
      const auto fit = api::Fitter().fit(fleet_data[m]);
      if (!fit) {
        std::printf("FAIL: cold fit: %s\n",
                    fit.status().to_string().c_str());
        return 1;
      }
      (*durable)->publish(names[m], *fit);
    }
    t_cold = sw.seconds();
    for (std::size_t m = 0; m < kFleet; ++m) {
      cold_responses.push_back(
          (*durable)->lookup(names[m])->response_at(fleet_freqs[0]));
    }
  }  // the cold fleet is gone; only snapshot + journal remain
  sw.reset();
  auto warm = serving::ModelRegistry::open(fleet_dir);
  const double t_warm = sw.seconds();
  if (!warm) {
    std::printf("FAIL: warm restart: %s\n",
                warm.status().to_string().c_str());
    return 1;
  }
  if ((*warm)->size() != kFleet) {
    std::printf("FAIL: warm restart restored %zu of %zu models\n",
                (*warm)->size(), kFleet);
    ok = false;
  }
  for (std::size_t m = 0; m < kFleet; ++m) {
    const auto handle = (*warm)->lookup(names[m]);
    if (!handle ||
        max_abs_diff(handle->response_at(fleet_freqs[0]),
                     cold_responses[m]) != 0.0) {
      std::printf("FAIL: '%s' not bitwise identical after restart\n",
                  names[m].c_str());
      ok = false;
    }
  }
  std::filesystem::remove_all(fleet_dir);

  std::printf("\ndurability: %zu models:\n", kFleet);
  std::printf("  cold fit + publish      : %8.3f ms\n", 1e3 * t_cold);
  std::printf("  warm restart (replay)   : %8.3f ms  (%.2fx)\n",
              1e3 * t_warm, t_cold / t_warm);

  // --- query storm: concurrent readers vs a republish loop ------------------
  //
  // N reader threads hammer one model through the engine while a publisher
  // republishes alternating versions as fast as it can. Readers verify
  // every response bitwise against the reference of the version the
  // response claims (odd = sys_a, even = sys_b): a single mixed-version
  // value is a hard failure. Registry reads are RCU (one atomic load), so
  // reader throughput should scale with threads even under the publish
  // storm — the scaling ratio is reported for multi-core runs; only
  // correctness is asserted (a single-core container cannot scale).

  const ss::DescriptorSystem storm_a = [&rng] {
    ss::RandomSystemOptions o;
    o.order = 24;
    o.num_outputs = 4;
    o.num_inputs = 4;
    o.rank_d = 4;
    return ss::random_stable_mimo(o, rng);
  }();
  const ss::DescriptorSystem storm_b = [&rng] {
    ss::RandomSystemOptions o;
    o.order = 24;
    o.num_outputs = 4;
    o.num_inputs = 4;
    o.rank_d = 4;
    return ss::random_stable_mimo(o, rng);
  }();
  std::vector<la::Complex> storm_points;
  for (double f : sp::log_grid(10.0, 1e5, 8)) {
    storm_points.emplace_back(0.0, 2.0 * std::numbers::pi * f);
  }
  // References from separate handles: the engine must serve exactly these
  // bits, so one value from the other version fails the != 0.0 check.
  std::vector<la::CMat> storm_ref_a;
  std::vector<la::CMat> storm_ref_b;
  for (const la::Complex& s : storm_points) {
    storm_ref_a.push_back(api::ModelHandle(storm_a).evaluate(s));
    storm_ref_b.push_back(api::ModelHandle(storm_b).evaluate(s));
  }

  const std::size_t storm_rounds = rounds * 8;
  // Runs one storm: returns {seconds, queries, publishes, mixed}.
  struct StormResult {
    double seconds = 0.0;
    std::size_t queries = 0;
    std::uint64_t publishes = 0;
    std::size_t mixed = 0;
  };
  const auto run_storm = [&](std::size_t readers) {
    serving::ModelRegistry storm_registry;
    storm_registry.publish(
        "storm", std::make_shared<const api::ModelHandle>(storm_a));
    serving::ServingEngine storm_engine(storm_registry);
    StormResult result;
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> mixed{0};
    std::atomic<std::size_t> served{0};
    mfti::metrics::Stopwatch storm_sw;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < readers; ++t) {
      threads.emplace_back([&] {
        for (std::size_t r = 0; r < storm_rounds; ++r) {
          const auto response =
              storm_engine.evaluate({"storm", storm_points});
          if (!response) {
            mixed.fetch_add(1);  // the model must never disappear
            continue;
          }
          const auto& ref = (response->version % 2 == 1) ? storm_ref_a
                                                         : storm_ref_b;
          for (std::size_t i = 0; i < storm_points.size(); ++i) {
            if (max_abs_diff(response->values[i], ref[i]) != 0.0) {
              mixed.fetch_add(1);
              break;
            }
          }
          served.fetch_add(1);
        }
      });
    }
    std::uint64_t publishes = 0;
    std::thread publisher([&] {
      // do-while: at least one republish even if the scheduler never runs
      // this thread before the readers finish.
      do {
        const auto& sys = (publishes % 2 == 0) ? storm_b : storm_a;
        storm_registry.publish(
            "storm", std::make_shared<const api::ModelHandle>(sys));
        ++publishes;
      } while (!stop.load(std::memory_order_relaxed));
    });
    for (auto& t : threads) t.join();
    result.seconds = storm_sw.seconds();
    stop.store(true);
    publisher.join();
    result.queries = served.load();
    result.publishes = publishes;
    result.mixed = mixed.load();
    return result;
  };

  const std::size_t max_readers =
      std::max<std::size_t>(2, mfti::parallel::hardware_threads());
  const StormResult storm_1 = run_storm(1);
  const StormResult storm_n = run_storm(max_readers);
  const double qps_1 =
      static_cast<double>(storm_1.queries) / storm_1.seconds;
  const double qps_n =
      static_cast<double>(storm_n.queries) / storm_n.seconds;

  std::printf("\nquery storm: %zu rounds x %zu points, republish loop:\n",
              storm_rounds, storm_points.size());
  std::printf("  1 reader   : %8.3f ms, %9.0f q/s, %llu publishes\n",
              1e3 * storm_1.seconds, qps_1,
              static_cast<unsigned long long>(storm_1.publishes));
  std::printf("  %zu readers : %8.3f ms, %9.0f q/s, %llu publishes (%.2fx)\n",
              max_readers, 1e3 * storm_n.seconds, qps_n,
              static_cast<unsigned long long>(storm_n.publishes),
              qps_n / qps_1);
  if (storm_1.mixed != 0 || storm_n.mixed != 0) {
    std::printf("FAIL: %zu mixed-version (or failed) storm responses\n",
                storm_1.mixed + storm_n.mixed);
    ok = false;
  }
  if (storm_1.queries != storm_rounds ||
      storm_n.queries != max_readers * storm_rounds) {
    std::printf("FAIL: storm readers lost queries\n");
    ok = false;
  }
  if (storm_1.publishes == 0 || storm_n.publishes == 0) {
    std::printf("FAIL: the publish storm never published\n");
    ok = false;
  }

  // --- tracing overhead: engine eval, no context vs live context ------------
  //
  // The fleet handles were reduced in the multi-model section, so both runs
  // measure the pure serving path: registry acquire + one solve per point.
  // The untraced run is the exact code path a production
  // request takes with tracing disabled (trace == nullptr skips every
  // clock read); the traced run pays begin/record/finish per batch. Each
  // variant runs five interleaved passes in alternating order and keeps
  // its best: the per-variant minimum converges to the machine's floor,
  // so a scheduler hiccup or frequency ramp hits individual samples, not
  // the ratio of floors the gate reads.

  obs::TraceOptions trace_opts;  // defaults: enabled, ring 128
  obs::TraceCollector trace_collector(trace_opts);
  const std::size_t trace_rounds = rounds * 4;
  const auto eval_rounds = [&](bool traced) {
    mfti::metrics::Stopwatch trace_sw;
    for (std::size_t r = 0; r < trace_rounds; ++r) {
      std::shared_ptr<obs::TraceContext> ctx;
      if (traced) ctx = trace_collector.begin("");
      std::vector<serving::EvalRequest> batch;
      batch.reserve(kFleet);
      for (std::size_t m = 0; m < kFleet; ++m) {
        serving::EvalRequest request{names[m], fleet_points};
        request.trace = ctx;
        batch.push_back(std::move(request));
      }
      for (const auto& response : engine.evaluate(batch)) {
        if (!response) {
          std::printf("FAIL: traced engine eval: %s\n",
                      response.status().to_string().c_str());
          std::exit(1);
        }
      }
      if (traced) trace_collector.finish(ctx, "/bench", 200, 0.0);
    }
    return trace_sw.seconds();
  };
  double t_trace_off = 0.0;
  double t_trace_on = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const bool on_first = (pass % 2) != 0;
    const double first = eval_rounds(on_first);
    const double second = eval_rounds(!on_first);
    const double on = on_first ? first : second;
    const double off = on_first ? second : first;
    t_trace_off = pass == 0 ? off : std::min(t_trace_off, off);
    t_trace_on = pass == 0 ? on : std::min(t_trace_on, on);
  }
  const double trace_ratio = t_trace_on / t_trace_off;

  std::printf("\ntracing overhead: %zu rounds x %zu models x %zu points:\n",
              trace_rounds, kFleet, fleet_points.size());
  std::printf("  tracing off (no context): %8.3f ms\n", 1e3 * t_trace_off);
  std::printf("  tracing on  (full spans): %8.3f ms  (%.4fx)\n",
              1e3 * t_trace_on, trace_ratio);
  if (const char* gate = std::getenv("MFTI_TRACE_OVERHEAD_GATE")) {
    const std::optional<double> max_ratio = mfti::util::parse_double(gate);
    if (!max_ratio || *max_ratio <= 1.0) {
      std::printf("FAIL: MFTI_TRACE_OVERHEAD_GATE='%s' is not a ratio > 1\n",
                  gate);
      ok = false;
    } else if (trace_ratio > *max_ratio) {
      std::printf("FAIL: tracing overhead %.4fx exceeds the %.4fx gate\n",
                  trace_ratio, *max_ratio);
      ok = false;
    } else {
      std::printf("  gate: %.4fx <= %.4fx (MFTI_TRACE_OVERHEAD_GATE)\n",
                  trace_ratio, *max_ratio);
    }
  }

  mfti::bench::JsonReport json("model_serving");
  json.add("naive_transfer_function",
           {{"seconds", t_naive}, {"queries", static_cast<double>(queries)}});
  json.add("batch_evaluator",
           {{"seconds", t_eval}, {"speedup", t_naive / t_eval}});
  json.add("model_handle",
           {{"seconds", t_handle}, {"speedup", t_naive / t_handle}});
  json.add("multi_model_direct",
           {{"seconds", t_direct}, {"models", static_cast<double>(kFleet)}});
  json.add("multi_model_engine",
           {{"seconds", t_engine},
            {"speedup", t_direct / t_engine},
            {"models", static_cast<double>(kFleet)}});
  json.add("cold_fit",
           {{"seconds", t_cold}, {"models", static_cast<double>(kFleet)}});
  json.add("warm_restart", {{"seconds", t_warm},
                            {"speedup", t_cold / t_warm},
                            {"models", static_cast<double>(kFleet)}});
  json.add("query_storm_single",
           {{"seconds", storm_1.seconds},
            {"threads", 1.0},
            {"queries", static_cast<double>(storm_1.queries)},
            {"qps", qps_1},
            {"publishes", static_cast<double>(storm_1.publishes)}});
  json.add("query_storm",
           {{"seconds", storm_n.seconds},
            {"threads", static_cast<double>(max_readers)},
            {"queries", static_cast<double>(storm_n.queries)},
            {"qps", qps_n},
            {"publishes", static_cast<double>(storm_n.publishes)},
            {"reader_scaling", qps_n / qps_1}});
  json.add("engine_eval_trace_off",
           {{"seconds", t_trace_off},
            {"models", static_cast<double>(kFleet)}});
  json.add("engine_eval_trace_on",
           {{"seconds", t_trace_on},
            {"models", static_cast<double>(kFleet)},
            {"overhead_ratio", trace_ratio}});
  if (!json.write(args.json_path)) ok = false;
  std::printf(ok ? "OK\n" : "NOT OK\n");
  return ok ? 0 : 1;
}
