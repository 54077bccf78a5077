// Part (b) of the traced run: the workload's generated requests and refits
// replayed in process through the public function of each layer.

#include <filesystem>
#include <memory>
#include <optional>

#include "api/api.hpp"
#include "io/snapshot.hpp"
#include "net/http.hpp"
#include "net/json.hpp"
#include "serving/model_registry.hpp"
#include "serving/serving_engine.hpp"
#include "workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace api = mfti::api;
namespace io = mfti::io;
namespace net = mfti::net;
namespace serving = mfti::serving;
using net::Json;

namespace {

/// Requests replayed at most, and the wall-clock budget for them.
constexpr std::size_t kMaxReplayRequests = 4000;
constexpr double kReplayRequestSeconds = 4.0;
/// Refits replayed (the first ones of the workload's noise-seed stream).
constexpr std::size_t kReplayRefits = 3;
/// Timed pairs of `api::Fitter::fit` and the traced split per refit.
constexpr std::size_t kFitPairs = 2;
/// Replayed responses also run through the output check.
constexpr std::size_t kCheckedReplays = 8;

/// The HTTP response the server sends for one eval entry.
std::string encode_response(const serving::EvalResponse& eval) {
  net::HttpResponse response;
  response.headers["Content-Type"] = "application/json";
  response.headers["Connection"] = "keep-alive";
  response.body = eval_response_body(eval.model, eval.version,
                                     eval.unique_points, eval.values);
  response.body.push_back('\n');
  return net::serialize_response(response);
}

}  // namespace

ReplayResult replay(const Workload& w, const Fleet& fleet,
                    const ResponseChecker& checker,
                    const std::string& work_dir) {
  ReplayResult out;
  const auto fail = [&](std::string why) {
    ++out.failed;
    if (out.failures.size() < 8) out.failures.push_back(std::move(why));
  };
  const std::string dir = work_dir + "/replay";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(fleet.dir, dir + "/fleet", fs::copy_options::recursive);

  // --- requests --------------------------------------------------------------
  {
    auto registry = serving::ModelRegistry::open(dir + "/fleet");
    if (!registry) {
      ++out.attempted;
      fail("replay cannot open the fleet: " + registry.status().to_string());
      return out;
    }
    const serving::ServingEngine engine(**registry);
    Traffic traffic(w, fleet, /*traced=*/false);
    const double deadline = now_s() + kReplayRequestSeconds;
    for (std::uint64_t i = 0; i < kMaxReplayRequests && now_s() < deadline;
         ++i) {
      // Interleave the connections' streams as the server saw them.
      const std::size_t conn = i % w.readers;
      const EvalCall& call = traffic.next(conn, i / w.readers);
      ++out.attempted;
      const std::uint64_t id = i;
      const int root = out.spans.begin("replay.request", id);

      int span = out.spans.begin("net.parse", id, root);
      net::HttpRequestParser parser;
      const bool complete =
          parser.feed(call.raw) == net::HttpRequestParser::State::Complete;
      auto parsed = net::parse_json(parser.request().body);
      out.spans.end(span);
      out.parse_us.push_back(out.spans.seconds(span) * 1e6);
      const Json* requests = parsed ? parsed->find("requests") : nullptr;
      if (!complete || requests == nullptr || requests->size() != 1) {
        out.spans.end(root);
        fail("replayed request does not parse");
        continue;
      }
      const Json* model = requests->at(0).find("model");
      const Json* freqs_hz = requests->at(0).find("freqs_hz");
      if (model == nullptr || freqs_hz == nullptr) {
        out.spans.end(root);
        fail("replayed request lacks model or freqs_hz");
        continue;
      }
      std::vector<double> freqs;
      for (const Json& f : freqs_hz->items()) freqs.push_back(f.as_number());
      const serving::EvalRequest request =
          serving::EvalRequest::at_hz(model->as_string(), std::move(freqs));

      span = out.spans.begin("serving.engine", id, root);
      const auto eval = engine.evaluate(request);
      out.spans.end(span);
      out.engine_us.push_back(out.spans.seconds(span) * 1e6);
      if (!eval) {
        out.spans.end(root);
        fail("replayed eval failed: " + eval.status().to_string());
        continue;
      }

      span = out.spans.begin("net.encode", id, root);
      const std::string wire = encode_response(*eval);
      out.spans.end(span);
      out.spans.end(root);
      out.encode_us.push_back(out.spans.seconds(span) * 1e6);
      out.response_kb.push_back(static_cast<double>(wire.size()) / 1024.0);

      if (i < kCheckedReplays) {
        const std::string why = checker.check(
            std::string_view(wire).substr(wire.find("\r\n\r\n") + 4),
            call.model->name, call.freqs);
        if (!why.empty()) fail("replay: " + why);
      }
    }
  }

  // --- refits ------------------------------------------------------------------
  const serving::VerificationPolicy gate(gate_options());
  for (std::size_t k = 0; k < kReplayRefits; ++k) {
    ++out.attempted;
    const sampling::SampleSet samples =
        pdn_measurement(refit_noise_seed(w.seed, k));
    const std::uint64_t id = (1ULL << 62) | k;
    const int root = out.spans.begin("replay.refit", id);

    std::optional<api::FitReport> fit;
    double fit_s = 0.0;
    const auto run_facade = [&] {
      const int span = out.spans.begin("api.fit", id, root);
      auto report =
          api::Fitter().fit(samples, api::MftiStrategy{pdn_fit_options()});
      out.spans.end(span);
      fit_s = out.spans.seconds(span);
      if (report) {
        fit = std::move(*report);
      } else {
        fit.reset();
        fail("replayed fit failed: " + report.status().to_string());
      }
    };
    SplitFit split;
    const auto run_split = [&] {
      const int span = out.spans.begin("fit.split", id, root);
      split = split_fit(samples, pdn_fit_options());
      out.spans.end(span);
      const double t0 = out.spans.spans()[span].start;
      const double t1 = t0 + split.tangential_s;
      const double t2 = t1 + split.assembly_s;
      out.spans.add("loewner.tangential", id, span, t0, t1);
      out.spans.add("loewner.assembly", id, span, t1, t2);
      out.spans.add("loewner.realize", id, span, t2, t2 + split.realize_s);
    };
    // The facade and the split in pairs, each pair in the other order:
    // the residue is the median of the paired differences, so a drift of
    // the host's speed between two fits cancels out of it.
    for (std::size_t pair = 0; pair < kFitPairs; ++pair) {
      if (pair % 2 == 0) {
        run_facade();
        run_split();
      } else {
        run_split();
        run_facade();
      }
      if (!fit) break;
      if (!(split.model == fit->model)) {
        fail("traced split fit differs from api::Fitter::fit");
      }
      out.fit_s.push_back(fit_s);
      out.tangential_ms.push_back(split.tangential_s * 1e3);
      out.assembly_ms.push_back(split.assembly_s * 1e3);
      out.realize_ms.push_back(split.realize_s * 1e3);
      out.fit_residue_ms.push_back(
          (fit_s - split.tangential_s - split.assembly_s - split.realize_s) *
          1e3);
    }
    if (!fit) {
      out.spans.end(root);
      continue;
    }

    int span = out.spans.begin("serving.verify", id, root);
    const serving::VerificationReport report = gate.verify(split.model);
    out.spans.end(span);
    out.verify_ms.push_back(out.spans.seconds(span) * 1e3);
    if (!report.passed) fail("replayed refit fails the gate");

    const std::string snapshot = dir + "/refit-" + std::to_string(k) + ".mfti";
    span = out.spans.begin("io.snapshot_save", id, root);
    const api::Status saved =
        io::save_model_snapshot(snapshot, api::ModelHandle(fit->model));
    out.spans.end(span);
    out.spans.end(root);
    out.save_ms.push_back(out.spans.seconds(span) * 1e3);
    if (!saved.is_ok()) {
      fail("replayed snapshot save failed: " + saved.to_string());
    } else {
      out.snapshot_kb.push_back(static_cast<double>(fs::file_size(snapshot)) /
                                1024.0);
    }
    out.order.push_back(static_cast<double>(fit->order));
  }
  return out;
}

}  // namespace perfbench
