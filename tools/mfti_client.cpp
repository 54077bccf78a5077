/// \file mfti_client.cpp
/// \brief Smoke/bench client of the HTTP serving front, and the fleet
/// seeder the loopback CI job uses.
///
///   mfti_client seed       --dir <registry-dir> [--models N]
///   mfti_client smoke      --port <n> [--host 127.0.0.1] --dir <dir>
///                          [--expect-429]
///   mfti_client bench      --port <n> [--host 127.0.0.1] [--rounds N]
///                          [--json out.json]
///   mfti_client quarantine --port <n> --dir <dir> [--admin-token t]
///   mfti_client trace      --port <n> [--host 127.0.0.1] [--admin-token t]
///
/// `seed` publishes N demo models (named m0..m{N-1}) into a durable
/// registry directory and writes `model-0.mfti` next to it, so a later
/// `mfti_serve --dir` warm-restarts the same fleet. `smoke` asserts
/// loopback parity — every value served over HTTP must match the
/// in-process evaluation of the same snapshot to 1e-12 (and exactly, for
/// the repeated points the engine's in-batch dedup answers) — plus the
/// protocol edges: models listing, 404 on unknown models, 400 on
/// malformed JSON, and (with `--expect-429`) the rate-limit refusal.
/// `bench` emits the standard bench JSON schema (`bench/compare_bench.py`
/// consumes it).
/// `quarantine` drives the verification gate end-to-end against a server
/// running with `MFTI_VERIFY=1`: publish a deliberately non-passive model,
/// assert it quarantines (404 on eval, listed by the admin API), assert an
/// unforced promote is refused, force-promote, assert it serves, then
/// quarantine-and-discard a second copy. `trace` exercises the request
/// tracing path (docs/observability.md): traced eval with `X-Request-Id` +
/// `X-MFTI-Trace: 1`, header echo and `"timings"` block asserted, then
/// (given an admin token) the `/v1/admin/trace` ring must list the trace
/// with its queue/lookup/solve spans.
///
/// Transient failures: every mode retries refused connections and `429`
/// responses with exponential backoff + deterministic jitter, honoring
/// `Retry-After` (`--max-retries`, `--backoff-ms`; the `--expect-429`
/// burst bypasses the retry layer on purpose). Bench JSON reports the
/// retry count.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "io/snapshot.hpp"
#include "net/net.hpp"
#include "serving/serving.hpp"
#include "statespace/random_system.hpp"
#include "util/knobs.hpp"

namespace api = mfti::api;
namespace io = mfti::io;
namespace la = mfti::la;
namespace net = mfti::net;
namespace serving = mfti::serving;
namespace ss = mfti::ss;

namespace {

constexpr double kPi = 3.14159265358979323846;

struct Args {
  std::string mode;
  std::string dir;
  std::string host = "127.0.0.1";
  int port = 0;
  std::size_t models = 3;
  std::size_t rounds = 50;
  std::string json_path;
  std::string admin_token;  ///< defaults to $MFTI_HTTP_ADMIN_TOKEN
  std::size_t max_retries = 3;
  std::size_t backoff_ms = 100;
  bool expect_429 = false;
  bool valid = true;
};

Args parse_args(int argc, char** argv) {
  Args out;
  if (argc < 2) {
    out.valid = false;
    return out;
  }
  out.mode = argv[1];
  int i = 2;
  // The value after a numeric flag: a whole decimal integer <= max, or
  // the arguments are invalid (usage error).
  const auto number = [&](auto* value, std::uint64_t max) {
    const char* text = argv[++i];
    const auto parsed = mfti::util::parse_uint(text, max);
    if (!parsed) {
      std::fprintf(stderr, "malformed %s '%s' (want an integer 0..%llu)\n",
                   argv[i - 1], text, static_cast<unsigned long long>(max));
      out.valid = false;
      return;
    }
    *value = static_cast<std::remove_pointer_t<decltype(value)>>(*parsed);
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--dir" && has_value) {
      out.dir = argv[++i];
    } else if (arg == "--host" && has_value) {
      out.host = argv[++i];
    } else if (arg == "--port" && has_value) {
      number(&out.port, 65535);
    } else if (arg == "--models" && has_value) {
      number(&out.models, SIZE_MAX);
    } else if (arg == "--rounds" && has_value) {
      number(&out.rounds, SIZE_MAX);
    } else if (arg == "--json" && has_value) {
      out.json_path = argv[++i];
    } else if (arg == "--admin-token" && has_value) {
      out.admin_token = argv[++i];
    } else if (arg == "--max-retries" && has_value) {
      number(&out.max_retries, SIZE_MAX);
    } else if (arg == "--backoff-ms" && has_value) {
      number(&out.backoff_ms, SIZE_MAX);
    } else if (arg == "--expect-429") {
      out.expect_429 = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      out.valid = false;
      return out;
    }
  }
  if (out.admin_token.empty()) {
    mfti::util::env_knob("MFTI_HTTP_ADMIN_TOKEN", &out.admin_token);
  }
  return out;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: mfti_client seed       --dir <d> [--models N]\n"
      "       mfti_client smoke      --port <n> --dir <d> [--host h]"
      " [--expect-429]\n"
      "       mfti_client bench      --port <n> [--host h] [--rounds N]"
      " [--json out.json]\n"
      "       mfti_client quarantine --port <n> --dir <d>"
      " [--admin-token t]\n"
      "       mfti_client trace      --port <n> [--host h]"
      " [--admin-token t]\n"
      "common: [--max-retries N] [--backoff-ms M]\n");
  return 2;
}

ss::DescriptorSystem demo_system(std::size_t index) {
  la::Rng rng(1000 + index);
  ss::RandomSystemOptions opts;
  opts.order = 24 + 8 * index;
  opts.num_outputs = 2;
  opts.num_inputs = 2;
  opts.rank_d = 2;
  opts.f_min_hz = 10.0;
  opts.f_max_hz = 1e5;
  return ss::random_stable_mimo(opts, rng);
}

std::vector<double> demo_freqs(std::size_t count) {
  std::vector<double> freqs;
  freqs.reserve(count);
  const double lo = std::log10(10.0);
  const double hi = std::log10(1e5);
  for (std::size_t i = 0; i < count; ++i) {
    const double t =
        count == 1 ? 0.0
                   : static_cast<double>(i) / static_cast<double>(count - 1);
    freqs.push_back(std::pow(10.0, lo + t * (hi - lo)));
  }
  return freqs;
}

/// One keep-alive connection to the front; reconnects after a
/// `Connection: close` response.
class HttpClient {
 public:
  HttpClient(std::string host, int port)
      : host_(std::move(host)), port_(port) {}

  api::Expected<net::HttpResponse> request(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      const std::map<std::string, std::string>& headers = {}) {
    if (!socket_.valid()) {
      auto connected = net::Socket::connect(host_, port_, 2000);
      if (!connected) return connected.status();
      socket_ = std::move(*connected);
    }
    net::HttpRequest req;
    req.method = method;
    req.target = target;
    req.body = body;
    req.headers = headers;
    if (!body.empty()) req.headers["Content-Type"] = "application/json";
    const api::Status sent =
        socket_.write_all(net::serialize_request(req), 5000);
    if (!sent.is_ok()) return sent;

    net::HttpResponseParser parser;
    std::string chunk;
    while (parser.state() == net::HttpResponseParser::State::NeedMore) {
      chunk.clear();
      const long n = socket_.read_some(&chunk, 10000);
      if (n <= 0) {
        socket_ = net::Socket();
        return api::Status::internal("connection lost mid-response");
      }
      parser.feed(chunk);
    }
    if (parser.state() == net::HttpResponseParser::State::Error) {
      socket_ = net::Socket();
      return api::Status::internal("bad response: " + parser.error_detail());
    }
    net::HttpResponse response = parser.response();
    if (response.header("connection") == "close") socket_ = net::Socket();
    return response;
  }

 private:
  std::string host_;
  int port_;
  net::Socket socket_;
};

/// Bounded-retry wrapper around `HttpClient::request`: transport errors
/// (connection refused, connection lost) and `429` responses are retried
/// with exponential backoff plus deterministic jitter; a `Retry-After`
/// header stretches the wait when it asks for more. Any other response —
/// including 4xx/5xx — returns immediately: only *transient* conditions
/// are worth a retry, and a deterministic error would just repeat.
class RetryingClient {
 public:
  RetryingClient(HttpClient& client, std::size_t max_retries,
                 std::size_t backoff_ms)
      : client_(client), max_retries_(max_retries), backoff_ms_(backoff_ms) {}

  api::Expected<net::HttpResponse> request(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      const std::map<std::string, std::string>& headers = {}) {
    for (std::size_t attempt = 0;; ++attempt) {
      auto response = client_.request(method, target, body, headers);
      const bool transient =
          !response.has_value() ||
          (response.has_value() && response->status == 429);
      if (!transient || attempt >= max_retries_) return response;
      double delay_ms = static_cast<double>(backoff_ms_) *
                        std::pow(2.0, static_cast<double>(attempt));
      // Deterministic jitter (0..25%, keyed on the attempt counter):
      // staggers a fleet of identical clients without a shared RNG, and
      // keeps test runs reproducible.
      delay_ms *= 1.0 + 0.25 * static_cast<double>((total_retries_ *
                                                    2654435761ULL) %
                                                   100ULL) /
                            100.0;
      if (response.has_value()) {
        // Delay-seconds only; an HTTP-date or garbage keeps the backoff.
        if (const auto seconds = mfti::util::parse_double(
                response->header("retry-after"))) {
          delay_ms = std::max(delay_ms, *seconds * 1000.0);
        }
      }
      delay_ms = std::min(delay_ms, 5000.0);
      ++total_retries_;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          delay_ms));
    }
  }

  std::uint64_t total_retries() const { return total_retries_; }

 private:
  HttpClient& client_;
  std::size_t max_retries_;
  std::size_t backoff_ms_;
  std::uint64_t total_retries_ = 0;
};

std::string eval_body(const std::string& model,
                      const std::vector<double>& freqs) {
  net::Json item = net::Json::object();
  item.set("model", net::Json(model));
  net::Json list = net::Json::array();
  for (const double f : freqs) list.push_back(net::Json(f));
  item.set("freqs_hz", std::move(list));
  net::Json body = net::Json::object();
  net::Json requests = net::Json::array();
  requests.push_back(std::move(item));
  body.set("requests", std::move(requests));
  return body.dump();
}

#define CHECK(cond, ...)                                  \
  do {                                                    \
    if (!(cond)) {                                        \
      std::fprintf(stderr, "FAIL(%d): ", __LINE__);       \
      std::fprintf(stderr, __VA_ARGS__);                  \
      std::fprintf(stderr, "\n");                         \
      return 1;                                           \
    }                                                     \
  } while (0)

int run_seed(const Args& args) {
  auto registry = serving::ModelRegistry::open(args.dir);
  if (!registry) {
    std::fprintf(stderr, "cannot open registry '%s': %s\n", args.dir.c_str(),
                 registry.status().to_string().c_str());
    return 1;
  }
  for (std::size_t m = 0; m < args.models; ++m) {
    auto handle =
        std::make_shared<const api::ModelHandle>(demo_system(m));
    if (m == 0) {
      const std::string path = args.dir + "/model-0.mfti";
      const api::Status saved = io::save_model_snapshot(path, *handle);
      if (!saved.is_ok()) {
        std::fprintf(stderr, "cannot save %s: %s\n", path.c_str(),
                     saved.to_string().c_str());
        return 1;
      }
    }
    std::string name = "m";
    name += std::to_string(m);
    (*registry)->publish(name, std::move(handle));
  }
  std::printf("seeded %zu model(s) into %s\n", args.models,
              args.dir.c_str());
  return 0;
}

int run_smoke(const Args& args) {
  HttpClient client(args.host, args.port);
  RetryingClient retry(client, args.max_retries, args.backoff_ms);

  // Liveness first: the launcher may race us against server startup.
  api::Expected<net::HttpResponse> health =
      client.request("GET", "/healthz");
  for (int attempt = 0; attempt < 50 && !health; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    health = client.request("GET", "/healthz");
  }
  CHECK(health && health->status == 200, "healthz unreachable");

  // The fleet listing must contain m0.
  auto models = retry.request("GET", "/v1/models");
  CHECK(models && models->status == 200, "GET /v1/models failed");
  auto listing = net::parse_json(models->body);
  CHECK(listing && listing->find("models") != nullptr,
        "models listing is not the expected JSON");
  bool has_m0 = false;
  for (const net::Json& entry : listing->find("models")->items()) {
    const net::Json* name = entry.find("name");
    if (name != nullptr && name->is_string() && name->as_string() == "m0") {
      has_m0 = true;
    }
  }
  CHECK(has_m0, "model m0 missing from /v1/models");

  // Loopback parity: every HTTP-served value must match the in-process
  // evaluation of the same snapshot file to 1e-12. The points repeat once
  // so the second half is answered by the engine's in-batch dedup — those
  // must match *exactly* (they are copies of the first computation).
  auto reference = io::load_model_snapshot(args.dir + "/model-0.mfti");
  CHECK(reference.has_value(), "cannot load reference snapshot: %s",
        reference.status().to_string().c_str());
  std::vector<double> freqs = demo_freqs(24);
  const std::size_t unique = freqs.size();
  freqs.insert(freqs.end(), freqs.begin(), freqs.end());

  auto evald =
      retry.request("POST", "/v1/eval", eval_body("m0", freqs));
  CHECK(evald && evald->status == 200, "POST /v1/eval failed (status %d)",
        evald ? evald->status : -1);
  auto parsed = net::parse_json(evald->body);
  CHECK(parsed.has_value(), "eval response is not JSON");
  const net::Json* responses = parsed->find("responses");
  CHECK(responses != nullptr && responses->size() == 1,
        "eval response shape");
  const net::Json* values = responses->at(0).find("values");
  CHECK(values != nullptr && values->size() == freqs.size(),
        "want %zu values", freqs.size());
  CHECK(responses->at(0).find("unique_points") != nullptr &&
            responses->at(0).find("unique_points")->as_number() ==
                static_cast<double>(unique),
        "in-batch dedup not applied");

  double worst = 0.0;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const la::CMat ref =
        (*reference)->evaluate(la::Complex(0.0, 2.0 * kPi * freqs[i]));
    const net::Json& value = values->at(i);
    const net::Json* re = value.find("re");
    const net::Json* im = value.find("im");
    CHECK(re != nullptr && im != nullptr &&
              re->size() == ref.rows() * ref.cols(),
        "value %zu has the wrong shape", i);
    for (std::size_t r = 0; r < ref.rows(); ++r) {
      for (std::size_t c = 0; c < ref.cols(); ++c) {
        const std::size_t flat = r * ref.cols() + c;
        const double dre =
            std::abs(re->at(flat).as_number() - ref(r, c).real());
        const double dim =
            std::abs(im->at(flat).as_number() - ref(r, c).imag());
        worst = std::max({worst, dre, dim});
        if (i >= unique) {
          // Repeated half: bitwise equality with the first computation,
          // which itself matched `ref` (checked by `worst` below).
          CHECK(dre == 0.0 && dim == 0.0,
                "repeated point %zu not exact (dre=%g dim=%g)", i, dre,
                dim);
        }
      }
    }
  }
  CHECK(worst <= 1e-12, "loopback parity %g > 1e-12", worst);
  std::printf("parity: worst |served - reference| = %g over %zu points\n",
              worst, freqs.size());

  // Error isolation: an unknown model answers 404 without crashing.
  auto missing =
      client.request("POST", "/v1/eval", eval_body("ghost", {10.0}));
  CHECK(missing && missing->status == 404, "unknown model: want 404, got %d",
        missing ? missing->status : -1);

  // Malformed JSON answers 400.
  auto bad = client.request("POST", "/v1/eval", "{not json");
  CHECK(bad && bad->status == 400, "malformed JSON: want 400, got %d",
        bad ? bad->status : -1);

  if (args.expect_429) {
    // Burst past the configured token bucket; at least one refusal with a
    // Retry-After header must show up. Deliberately bypasses the retry
    // layer — retrying-with-backoff would wait out the bucket and hide
    // the very refusal this asserts.
    bool saw_429 = false;
    for (int i = 0; i < 32 && !saw_429; ++i) {
      auto burst = client.request("POST", "/v1/eval",
                                  eval_body("m0", {10.0}),
                                  {{"X-API-Key", "burster"}});
      CHECK(burst.has_value(), "burst request failed");
      if (burst->status == 429) {
        CHECK(!burst->header("retry-after").empty(),
              "429 without Retry-After");
        saw_429 = true;
      }
    }
    CHECK(saw_429, "rate limit never refused a 32-request burst");
    std::printf("rate limit: observed 429 with Retry-After\n");
  }

  std::printf("smoke: all checks passed\n");
  return 0;
}

int run_bench(const Args& args) {
  HttpClient client(args.host, args.port);
  RetryingClient retry(client, args.max_retries, args.backoff_ms);
  const std::vector<double> freqs = demo_freqs(32);
  const std::string body = eval_body("m0", freqs);

  // Warmup: the first request builds the server-side evaluator.
  for (int i = 0; i < 3; ++i) {
    auto r = retry.request("POST", "/v1/eval", body);
    if (!r || r->status != 200) {
      std::fprintf(stderr, "bench warmup failed\n");
      return 1;
    }
  }

  std::vector<double> seconds;
  seconds.reserve(args.rounds);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < args.rounds; ++i) {
    const auto a = std::chrono::steady_clock::now();
    auto r = retry.request("POST", "/v1/eval", body);
    if (!r || r->status != 200) {
      std::fprintf(stderr, "bench round %zu failed\n", i);
      return 1;
    }
    const auto b = std::chrono::steady_clock::now();
    seconds.push_back(std::chrono::duration<double>(b - a).count());
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::sort(seconds.begin(), seconds.end());
  const auto quantile = [&](double q) {
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(seconds.size() - 1));
    return seconds[idx];
  };
  const double p50 = quantile(0.5);
  const double p90 = quantile(0.9);
  const double p99 = quantile(0.99);
  const double rps = static_cast<double>(args.rounds) / wall;
  std::printf("bench: %zu rounds, %zu points/req: p50 %.3gms p90 %.3gms "
              "p99 %.3gms (%.0f req/s, %llu retries)\n",
              args.rounds, freqs.size(), p50 * 1e3, p90 * 1e3, p99 * 1e3,
              rps, static_cast<unsigned long long>(retry.total_retries()));

  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    // "seconds" stays the p50 (the field every baseline already carries);
    // the explicit percentile fields ride along so compare_bench.py can
    // surface tail latency without schema archaeology.
    std::fprintf(f,
                 "{\n  \"bench\": \"model_serving_http\",\n"
                 "  \"metrics\": [\n"
                 "    {\"name\": \"eval_roundtrip\", \"seconds\": %.12g, "
                 "\"p50_seconds\": %.12g, \"p90_seconds\": %.12g, "
                 "\"p99_seconds\": %.12g, \"requests_per_second\": %.12g, "
                 "\"points\": %zu, \"retries\": %llu}\n  ]\n}\n",
                 p50, p50, p90, p99, rps, freqs.size(),
                 static_cast<unsigned long long>(retry.total_retries()));
    std::fclose(f);
    std::printf("[json] wrote %s\n", args.json_path.c_str());
  }
  return 0;
}

/// End-to-end drive of the request-tracing path: send a traced eval
/// (client-chosen `X-Request-Id`, `X-MFTI-Trace: 1`), assert the id is
/// echoed and the response carries a per-stage "timings" block, then —
/// when an admin token is available — scrape `GET /v1/admin/trace` and
/// assert the trace landed in the ring with the span stages the serving
/// path must produce (queue, lookup, solve).
int run_trace(const Args& args) {
  HttpClient client(args.host, args.port);
  RetryingClient retry(client, args.max_retries, args.backoff_ms);

  api::Expected<net::HttpResponse> health =
      client.request("GET", "/healthz");
  for (int attempt = 0; attempt < 50 && !health; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    health = client.request("GET", "/healthz");
  }
  CHECK(health && health->status == 200, "healthz unreachable");

  const std::string request_id = "trace-ci-0042";
  const std::map<std::string, std::string> trace_headers = {
      {"X-Request-Id", request_id}, {"X-MFTI-Trace", "1"}};

  auto traced = retry.request("POST", "/v1/eval",
                              eval_body("m0", demo_freqs(16)),
                              trace_headers);
  CHECK(traced && traced->status == 200, "traced eval failed (status %d)",
        traced ? traced->status : -1);
  CHECK(std::string(traced->header("x-request-id")) == request_id,
        "X-Request-Id not echoed (got '%s')",
        std::string(traced->header("x-request-id")).c_str());
  auto parsed = net::parse_json(traced->body);
  CHECK(parsed.has_value(), "traced eval response is not JSON");
  const net::Json* timings = parsed->find("timings");
  CHECK(timings != nullptr, "no 'timings' block despite X-MFTI-Trace: 1");
  const net::Json* timing_id = timings->find("id");
  CHECK(timing_id != nullptr && timing_id->is_string() &&
            timing_id->as_string() == request_id,
        "timings block id mismatch");
  const net::Json* stages = timings->find("stages");
  CHECK(stages != nullptr, "timings block lacks 'stages'");
  CHECK(stages->find("solve") != nullptr,
        "timings block has no engine stage");
  std::printf("trace: id echoed, timings block present\n");

  if (args.admin_token.empty()) {
    std::printf("trace: no admin token, skipping /v1/admin/trace scrape\n");
    return 0;
  }
  const std::map<std::string, std::string> admin = {
      {"X-Admin-Token", args.admin_token}};
  auto listing = retry.request("GET", "/v1/admin/trace", "", admin);
  CHECK(listing && listing->status == 200,
        "GET /v1/admin/trace failed (status %d)",
        listing ? listing->status : -1);
  auto listing_json = net::parse_json(listing->body);
  CHECK(listing_json.has_value(), "trace listing is not JSON");
  const net::Json* recent = listing_json->find("recent");
  CHECK(recent != nullptr && recent->size() > 0, "trace ring is empty");
  const net::Json* ours = nullptr;
  for (const net::Json& entry : recent->items()) {
    const net::Json* id = entry.find("id");
    if (id != nullptr && id->is_string() &&
        id->as_string() == request_id) {
      ours = &entry;
    }
  }
  CHECK(ours != nullptr, "trace '%s' not in the ring", request_id.c_str());
  const net::Json* spans = ours->find("spans");
  CHECK(spans != nullptr && spans->size() > 0, "trace has no spans");
  bool saw_queue = false;
  bool saw_lookup = false;
  bool saw_solve = false;
  for (const net::Json& span : spans->items()) {
    const net::Json* stage = span.find("stage");
    if (stage == nullptr || !stage->is_string()) continue;
    const std::string& name = stage->as_string();
    if (name == "queue") saw_queue = true;
    if (name == "lookup") saw_lookup = true;
    if (name == "solve") saw_solve = true;
  }
  CHECK(saw_queue, "trace lacks a 'queue' span");
  CHECK(saw_lookup, "trace lacks a 'lookup' span");
  CHECK(saw_solve, "trace lacks a 'solve' span");
  std::printf("trace: ring has '%s' with queue/lookup/solve spans — all "
              "checks passed\n",
              request_id.c_str());
  return 0;
}

/// End-to-end drive of the verification gate (server must run with
/// `MFTI_VERIFY=1` and an admin token). Asserts the quarantine lifecycle:
/// refused publish is never servable, promote is re-verified, force wins,
/// discard drops.
int run_quarantine(const Args& args) {
  CHECK(!args.admin_token.empty(),
        "quarantine mode needs --admin-token or $MFTI_HTTP_ADMIN_TOKEN");
  HttpClient client(args.host, args.port);
  RetryingClient retry(client, args.max_retries, args.backoff_ms);
  const std::map<std::string, std::string> admin = {
      {"X-Admin-Token", args.admin_token}};

  // Wait out server startup.
  api::Expected<net::HttpResponse> health =
      client.request("GET", "/healthz");
  for (int attempt = 0; attempt < 50 && !health; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    health = client.request("GET", "/healthz");
  }
  CHECK(health && health->status == 200, "healthz unreachable");

  // A deliberately non-passive model: scaling C inflates sigma_max(H)
  // far past 1 without touching the (stable) pencil eigenvalues.
  ss::DescriptorSystem bad = demo_system(0);
  for (std::size_t r = 0; r < bad.c.rows(); ++r) {
    for (std::size_t c = 0; c < bad.c.cols(); ++c) {
      bad.c(r, c) *= 100.0;
    }
  }
  const std::string snapshot_path = args.dir + "/nonpassive.mfti";
  const api::ModelHandle bad_handle(bad);
  const api::Status saved = io::save_model_snapshot(snapshot_path, bad_handle);
  CHECK(saved.is_ok(), "cannot save %s: %s", snapshot_path.c_str(),
        saved.to_string().c_str());

  const auto publish_body = [&snapshot_path](const std::string& name) {
    net::Json body = net::Json::object();
    body.set("name", net::Json(name));
    body.set("snapshot", net::Json(snapshot_path));
    return body.dump();
  };

  // 1. Publish → the gate must quarantine it.
  auto published = retry.request("POST", "/v1/admin/publish",
                                 publish_body("q0"), admin);
  CHECK(published && published->status == 200,
        "admin publish failed (status %d)",
        published ? published->status : -1);
  auto publish_json = net::parse_json(published->body);
  CHECK(publish_json.has_value(), "publish response is not JSON");
  const net::Json* quarantined_flag = publish_json->find("quarantined");
  CHECK(quarantined_flag != nullptr && quarantined_flag->is_bool() &&
            quarantined_flag->as_bool(),
        "non-passive publish was NOT quarantined");
  const net::Json* version_field = publish_json->find("version");
  CHECK(version_field != nullptr, "publish response lacks 'version'");
  const std::uint64_t version =
      static_cast<std::uint64_t>(version_field->as_number());

  // 2. Never observable via eval: 404, not the quarantined model.
  auto ghost = retry.request("POST", "/v1/eval", eval_body("q0", {100.0}));
  CHECK(ghost && ghost->status == 404,
        "quarantined model answered eval with %d (want 404)",
        ghost ? ghost->status : -1);

  // 3. Listed by the admin API, with the failed report attached.
  auto listing = retry.request("GET", "/v1/admin/quarantine", "", admin);
  CHECK(listing && listing->status == 200, "quarantine listing failed");
  auto listing_json = net::parse_json(listing->body);
  CHECK(listing_json.has_value(), "quarantine listing is not JSON");
  const net::Json* entries = listing_json->find("quarantined");
  CHECK(entries != nullptr && entries->size() == 1,
        "want exactly one quarantined version");
  const net::Json* report = entries->at(0).find("report");
  CHECK(report != nullptr && report->find("passed") != nullptr &&
            !report->find("passed")->as_bool(),
        "quarantine report should say passed=false");

  // 4. Unforced promote re-verifies and must refuse (422).
  const std::string action_base =
      "/v1/admin/quarantine/q0/" + std::to_string(version);
  auto refused =
      retry.request("POST", action_base + "/promote", "", admin);
  CHECK(refused && refused->status == 422,
        "unforced promote of a non-passive model: want 422, got %d",
        refused ? refused->status : -1);
  auto still_ghost =
      retry.request("POST", "/v1/eval", eval_body("q0", {100.0}));
  CHECK(still_ghost && still_ghost->status == 404,
        "refused promote leaked the model into serving");

  // 5. Forced promote goes live; eval serves it.
  auto forced = retry.request("POST", action_base + "/promote",
                              "{\"force\": true}", admin);
  CHECK(forced && forced->status == 200, "forced promote failed (%d)",
        forced ? forced->status : -1);
  auto served = retry.request("POST", "/v1/eval", eval_body("q0", {100.0}));
  CHECK(served && served->status == 200,
        "promoted model not serving (%d)", served ? served->status : -1);

  // 6. Second copy: quarantine again, then discard.
  auto again = retry.request("POST", "/v1/admin/publish",
                             publish_body("q0"), admin);
  CHECK(again && again->status == 200, "second publish failed");
  auto again_json = net::parse_json(again->body);
  CHECK(again_json && again_json->find("quarantined") != nullptr &&
            again_json->find("quarantined")->as_bool(),
        "second publish not quarantined");
  const std::uint64_t version2 = static_cast<std::uint64_t>(
      again_json->find("version")->as_number());
  CHECK(version2 > version, "quarantine version did not advance");
  auto discarded = retry.request(
      "POST",
      "/v1/admin/quarantine/q0/" + std::to_string(version2) + "/discard",
      "", admin);
  CHECK(discarded && discarded->status == 200, "discard failed (%d)",
        discarded ? discarded->status : -1);
  auto empty = retry.request("GET", "/v1/admin/quarantine", "", admin);
  CHECK(empty && empty->status == 200, "final listing failed");
  auto empty_json = net::parse_json(empty->body);
  CHECK(empty_json && empty_json->find("quarantined") != nullptr &&
            empty_json->find("quarantined")->size() == 0,
        "quarantine should be empty after promote + discard");
  // The discarded version never replaced the promoted one.
  auto final_eval =
      retry.request("POST", "/v1/eval", eval_body("q0", {100.0}));
  CHECK(final_eval && final_eval->status == 200,
        "live model lost after discard");

  std::printf("quarantine: all checks passed (quarantined v%llu, "
              "force-promoted, discarded v%llu)\n",
              static_cast<unsigned long long>(version),
              static_cast<unsigned long long>(version2));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.valid) return usage();
  if (args.mode == "seed") {
    if (args.dir.empty()) return usage();
    return run_seed(args);
  }
  if (args.mode == "smoke") {
    if (args.dir.empty() || args.port == 0) return usage();
    return run_smoke(args);
  }
  if (args.mode == "bench") {
    if (args.port == 0) return usage();
    return run_bench(args);
  }
  if (args.mode == "quarantine") {
    if (args.dir.empty() || args.port == 0) return usage();
    return run_quarantine(args);
  }
  if (args.mode == "trace") {
    if (args.port == 0) return usage();
    return run_trace(args);
  }
  return usage();
}
