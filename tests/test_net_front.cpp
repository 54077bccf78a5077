// End-to-end loopback tests of the HTTP serving front (net::ServingFront
// over a real engine + registry on 127.0.0.1): eval parity (bit-exact
// against in-process evaluation), per-request error isolation, the admin
// token gate (publish/rollback), admission control (queue overflow sheds
// 429 + Retry-After without stalling the accept loop; a rate-limited
// client is refused while an unthrottled one is served), request deadlines
// (408), graceful drain (in-flight requests complete), and request
// tracing (X-Request-Id propagation, the opt-in "timings" block, the
// token-gated /v1/admin/trace ring, mfti_stage_seconds on /metrics, and
// the MFTI_TRACE=0 disabled path).

#include "net/net.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.hpp"
#include "serving/serving.hpp"
#include "statespace/random_system.hpp"

namespace api = mfti::api;
namespace io = mfti::io;
namespace la = mfti::la;
namespace net = mfti::net;
namespace serving = mfti::serving;
namespace ss = mfti::ss;

namespace {

ss::DescriptorSystem make_system(std::size_t order, std::size_t ports,
                                 std::uint64_t seed) {
  la::Rng rng(seed);
  ss::RandomSystemOptions opts;
  opts.order = order;
  opts.num_outputs = ports;
  opts.num_inputs = ports;
  opts.rank_d = ports;
  opts.f_min_hz = 10.0;
  opts.f_max_hz = 1e5;
  return ss::random_stable_mimo(opts, rng);
}

serving::ModelSnapshot make_snapshot(std::size_t order, std::size_t ports,
                                     std::uint64_t seed) {
  return std::make_shared<const api::ModelHandle>(
      make_system(order, ports, seed));
}

/// A trivially passive/non-passive 1-port: H(s) = g / (s/w0 + 1).
serving::ModelSnapshot gain_snapshot(double g) {
  const double w0 = 2.0 * 3.14159265358979323846 * 1e3;
  return std::make_shared<const api::ModelHandle>(ss::DescriptorSystem{
      la::Mat{{1.0 / w0}}, la::Mat{{-1}}, la::Mat{{1}}, la::Mat{{g}},
      la::Mat{{0}}});
}

/// Registry options with the verification gate on (fixture-sized band).
serving::ModelRegistryOptions gated_options() {
  serving::VerificationOptions verify;
  verify.band_lo_hz = 1.0;
  verify.band_hi_hz = 1e6;
  verify.grid_points = 100;
  serving::ModelRegistryOptions opts;
  opts.verification =
      std::make_shared<const serving::VerificationPolicy>(verify);
  return opts;
}

/// Blocking loopback request helper over a fresh or kept-alive socket.
class TestClient {
 public:
  explicit TestClient(int port) : port_(port) {}

  api::Expected<net::HttpResponse> request(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      const std::map<std::string, std::string>& headers = {}) {
    if (!socket_.valid()) {
      auto connected = net::Socket::connect("127.0.0.1", port_, 2000);
      if (!connected) return connected.status();
      socket_ = std::move(*connected);
    }
    net::HttpRequest req;
    req.method = method;
    req.target = target;
    req.body = body;
    req.headers = headers;
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
      return api::Status::internal(parser.error_detail());
    }
    net::HttpResponse response = parser.response();
    if (response.header("connection") == "close") socket_ = net::Socket();
    return response;
  }

 private:
  int port_;
  net::Socket socket_;
};

std::string eval_body(const std::string& model, std::size_t points,
                      double f0 = 100.0) {
  net::Json item = net::Json::object();
  item.set("model", net::Json(model));
  net::Json freqs = net::Json::array();
  for (std::size_t i = 0; i < points; ++i) {
    freqs.push_back(net::Json(f0 * static_cast<double>(i + 1)));
  }
  item.set("freqs_hz", std::move(freqs));
  net::Json body = net::Json::object();
  net::Json requests = net::Json::array();
  requests.push_back(std::move(item));
  body.set("requests", std::move(requests));
  return body.dump();
}

}  // namespace

// A port beyond 16 bits is refused, not truncated: 65616 would otherwise
// bind port 80 and 65536 an ephemeral port.
TEST(Listener, RejectsPortsOutsideZeroTo65535) {
  for (const int port : {-1, 65536, 65616}) {
    net::Listener listener;
    const api::Status status = listener.listen("127.0.0.1", port);
    EXPECT_EQ(status.code(), api::StatusCode::InvalidArgument) << port;
    EXPECT_FALSE(listener.valid()) << port;
  }
  net::Listener ephemeral;
  ASSERT_TRUE(ephemeral.listen("127.0.0.1", 0).is_ok());
  EXPECT_GT(ephemeral.port(), 0);
}

TEST(ServingFront, EvalParityIsBitExact) {
  serving::ModelRegistry registry;
  const auto snapshot = make_snapshot(24, 2, 7);
  registry.publish("m", snapshot);
  serving::ServingEngine engine(registry);
  net::ServingFront front(engine, registry, {});
  ASSERT_TRUE(front.start().is_ok());

  TestClient client(front.port());
  auto response = client.request("POST", "/v1/eval", eval_body("m", 16));
  ASSERT_TRUE(response.has_value()) << response.status().to_string();
  ASSERT_EQ(response->status, 200) << response->body;
  auto parsed = net::parse_json(response->body);
  ASSERT_TRUE(parsed.has_value());
  const net::Json* entry = &parsed->find("responses")->at(0);
  EXPECT_EQ(entry->find("version")->as_number(), 1.0);
  const net::Json* values = entry->find("values");
  ASSERT_EQ(values->size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    const double f = 100.0 * static_cast<double>(i + 1);
    const la::CMat ref = snapshot->evaluate(
        la::Complex(0.0, 2.0 * 3.14159265358979323846 * f));
    const net::Json* re = values->at(i).find("re");
    const net::Json* im = values->at(i).find("im");
    ASSERT_EQ(re->size(), ref.rows() * ref.cols());
    for (std::size_t r = 0; r < ref.rows(); ++r) {
      for (std::size_t c = 0; c < ref.cols(); ++c) {
        const std::size_t flat = r * ref.cols() + c;
        // %.17g wire serialization: equality is exact, not approximate.
        EXPECT_EQ(re->at(flat).as_number(), ref(r, c).real());
        EXPECT_EQ(im->at(flat).as_number(), ref(r, c).imag());
      }
    }
  }
}

TEST(ServingFront, PerRequestErrorIsolation) {
  serving::ModelRegistry registry;
  registry.publish("ok", make_snapshot(16, 2, 8));
  serving::ServingEngine engine(registry);
  net::ServingFront front(engine, registry, {});
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());

  // Multi-request batch: the ghost model fails inline, the good one is
  // served, and the batch still answers 200.
  net::Json body = net::Json::object();
  net::Json requests = net::Json::array();
  {
    net::Json good = net::Json::object();
    good.set("model", net::Json("ok"));
    net::Json freqs = net::Json::array();
    freqs.push_back(net::Json(100.0));
    good.set("freqs_hz", std::move(freqs));
    requests.push_back(std::move(good));
    net::Json bad = net::Json::object();
    bad.set("model", net::Json("ghost"));
    net::Json freqs2 = net::Json::array();
    freqs2.push_back(net::Json(100.0));
    bad.set("freqs_hz", std::move(freqs2));
    requests.push_back(std::move(bad));
  }
  body.set("requests", std::move(requests));
  auto mixed = client.request("POST", "/v1/eval", body.dump());
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->status, 200);
  auto parsed = net::parse_json(mixed->body);
  ASSERT_TRUE(parsed.has_value());
  const net::Json* entries = parsed->find("responses");
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ(entries->at(0).find("error"), nullptr);
  ASSERT_NE(entries->at(1).find("error"), nullptr);
  EXPECT_EQ(entries->at(1).find("error")->find("http")->as_number(), 404.0);

  // A single unknown model surfaces its mapped status directly.
  auto missing = client.request("POST", "/v1/eval", eval_body("ghost", 1));
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  // Malformed JSON is a 400 before touching the engine.
  auto bad = client.request("POST", "/v1/eval", "{nope");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, 400);
  // So is a number that overflows to infinity.
  auto infinite = client.request("POST", "/v1/eval",
                                 R"({"model":"ok","freqs_hz":[1e999]})");
  ASSERT_TRUE(infinite.has_value());
  EXPECT_EQ(infinite->status, 400);

  // Unknown endpoints 404; wrong method 405.
  auto nowhere = client.request("GET", "/v2/teapot");
  ASSERT_TRUE(nowhere.has_value());
  EXPECT_EQ(nowhere->status, 404);
  auto wrong = client.request("GET", "/v1/eval");
  ASSERT_TRUE(wrong.has_value());
  EXPECT_EQ(wrong->status, 405);
}

TEST(ServingFront, ModelsListingAndMetrics) {
  serving::ModelRegistry registry;
  registry.publish("alpha", make_snapshot(16, 2, 9));
  registry.publish("beta", make_snapshot(16, 2, 10));
  serving::ServingEngine engine(registry);
  net::ServingFront front(engine, registry, {});
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());

  auto listing = client.request("GET", "/v1/models");
  ASSERT_TRUE(listing.has_value());
  ASSERT_EQ(listing->status, 200);
  auto parsed = net::parse_json(listing->body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("models")->size(), 2u);

  auto one = client.request("GET", "/v1/models/alpha");
  ASSERT_TRUE(one.has_value());
  ASSERT_EQ(one->status, 200);
  auto info = net::parse_json(one->body);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->find("name")->as_string(), "alpha");
  EXPECT_EQ(info->find("version")->as_number(), 1.0);

  auto ghost = client.request("GET", "/v1/models/ghost");
  ASSERT_TRUE(ghost.has_value());
  EXPECT_EQ(ghost->status, 404);

  auto metrics = client.request("GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  ASSERT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("mfti_http_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("mfti_serving_models 2"), std::string::npos);
  // Nothing is cached between requests, so there are no cache or
  // coalescing series.
  EXPECT_EQ(metrics->body.find("mfti_serving_cache"), std::string::npos);
  EXPECT_EQ(metrics->body.find("mfti_serving_model_"), std::string::npos);
  EXPECT_EQ(metrics->body.find("mfti_serving_coalesced"), std::string::npos);
}

TEST(ServingFront, AdminTokenGatesPublishAndRollback) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(16, 2, 11));
  serving::ServingEngine engine(registry);
  net::ServingFrontOptions opts;
  opts.admin_token = "sekrit";
  net::ServingFront front(engine, registry, opts);
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "mfti_front_admin").string();
  std::filesystem::create_directories(dir);
  const std::string snap_path = dir + "/v2.mfti";
  ASSERT_TRUE(
      io::save_model_snapshot(snap_path, *make_snapshot(16, 2, 12)).is_ok());

  net::Json publish = net::Json::object();
  publish.set("name", net::Json("m"));
  publish.set("snapshot", net::Json(snap_path));

  // No token -> 401; wrong token -> 401.
  auto anon = client.request("POST", "/v1/admin/publish", publish.dump());
  ASSERT_TRUE(anon.has_value());
  EXPECT_EQ(anon->status, 401);
  auto wrong = client.request("POST", "/v1/admin/publish", publish.dump(),
                              {{"X-Admin-Token", "nope"}});
  ASSERT_TRUE(wrong.has_value());
  EXPECT_EQ(wrong->status, 401);
  EXPECT_EQ(registry.info("m")->version, 1u);

  // Correct token (both header forms) publishes version 2.
  auto ok = client.request("POST", "/v1/admin/publish", publish.dump(),
                           {{"Authorization", "Bearer sekrit"}});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200) << ok->body;
  EXPECT_EQ(registry.info("m")->version, 2u);

  net::Json rollback = net::Json::object();
  rollback.set("name", net::Json("m"));
  auto rolled = client.request("POST", "/v1/admin/rollback", rollback.dump(),
                               {{"X-Admin-Token", "sekrit"}});
  ASSERT_TRUE(rolled.has_value());
  EXPECT_EQ(rolled->status, 200) << rolled->body;
  EXPECT_EQ(registry.info("m")->version, 1u);  // v1 is live again

  std::filesystem::remove_all(dir);
}

TEST(ServingFront, QuarantineAdminLifecycleOverHttp) {
  serving::ModelRegistry registry(gated_options());
  registry.publish("m", gain_snapshot(0.8));  // v1 live (passes the gate)
  serving::ServingEngine engine(registry);
  net::ServingFrontOptions opts;
  opts.admin_token = "sekrit";
  net::ServingFront front(engine, registry, opts);
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());
  const std::map<std::string, std::string> token{{"X-Admin-Token", "sekrit"}};

  const std::string dir =
      (std::filesystem::temp_directory_path() / "mfti_front_quarantine")
          .string();
  std::filesystem::create_directories(dir);
  const std::string snap_path = dir + "/bad.mfti";
  ASSERT_TRUE(
      io::save_model_snapshot(snap_path, *gain_snapshot(1.3)).is_ok());

  // Publishing a non-passive snapshot succeeds (200) but reports the
  // quarantine outcome with the verification report attached.
  net::Json publish = net::Json::object();
  publish.set("name", net::Json("m"));
  publish.set("snapshot", net::Json(snap_path));
  auto published =
      client.request("POST", "/v1/admin/publish", publish.dump(), token);
  ASSERT_TRUE(published.has_value());
  ASSERT_EQ(published->status, 200) << published->body;
  auto outcome = net::parse_json(published->body);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->find("quarantined")->as_bool());
  EXPECT_EQ(outcome->find("version")->as_number(), 2.0);
  ASSERT_NE(outcome->find("report"), nullptr);
  EXPECT_FALSE(outcome->find("report")->find("passed")->as_bool());

  // The live version is untouched; eval still serves v1.
  EXPECT_EQ(registry.info("m")->version, 1u);
  auto eval = client.request("POST", "/v1/eval", eval_body("m", 3));
  ASSERT_TRUE(eval.has_value());
  EXPECT_EQ(eval->status, 200) << eval->body;

  // The listing is token-gated and GET-only.
  auto anon = client.request("GET", "/v1/admin/quarantine");
  ASSERT_TRUE(anon.has_value());
  EXPECT_EQ(anon->status, 401);
  auto wrong_method =
      client.request("POST", "/v1/admin/quarantine", "{}", token);
  ASSERT_TRUE(wrong_method.has_value());
  EXPECT_EQ(wrong_method->status, 405);
  auto listing = client.request("GET", "/v1/admin/quarantine", "", token);
  ASSERT_TRUE(listing.has_value());
  ASSERT_EQ(listing->status, 200) << listing->body;
  auto parsed = net::parse_json(listing->body);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->find("quarantined")->size(), 1u);
  const net::Json& entry = parsed->find("quarantined")->at(0);
  EXPECT_EQ(entry.find("name")->as_string(), "m");
  EXPECT_EQ(entry.find("version")->as_number(), 2.0);
  EXPECT_FALSE(entry.find("report")->find("passed")->as_bool());

  // Unforced promote re-verifies and is refused with 422.
  auto refused = client.request(
      "POST", "/v1/admin/quarantine/m/2/promote", "{}", token);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->status, 422) << refused->body;
  EXPECT_EQ(registry.info("m")->version, 1u);

  // Forced promote goes live; eval serves the promoted version.
  auto forced = client.request("POST", "/v1/admin/quarantine/m/2/promote",
                               "{\"force\": true}", token);
  ASSERT_TRUE(forced.has_value());
  ASSERT_EQ(forced->status, 200) << forced->body;
  auto promoted = net::parse_json(forced->body);
  ASSERT_TRUE(promoted.has_value());
  EXPECT_TRUE(promoted->find("promoted")->as_bool());
  EXPECT_TRUE(promoted->find("forced")->as_bool());
  EXPECT_EQ(registry.info("m")->version, 2u);

  // Discard: quarantine another bad version, drop it, and see NotFound on
  // a repeat.
  registry.publish("m", gain_snapshot(1.2));
  auto discarded = client.request(
      "POST", "/v1/admin/quarantine/m/3/discard", "", token);
  ASSERT_TRUE(discarded.has_value());
  EXPECT_EQ(discarded->status, 200) << discarded->body;
  auto again = client.request(
      "POST", "/v1/admin/quarantine/m/3/discard", "", token);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, 404);

  // Malformed version / unknown action are client errors, not crashes. An
  // overflowing version is malformed too, not a lookup of 2^64 - 1.
  for (const char* bad : {"abc", "99999999999999999999", "+2"}) {
    auto bad_version = client.request(
        "POST", std::string("/v1/admin/quarantine/m/") + bad + "/promote",
        "{}", token);
    ASSERT_TRUE(bad_version.has_value()) << bad;
    EXPECT_EQ(bad_version->status, 400) << bad;
  }
  auto bad_action = client.request(
      "POST", "/v1/admin/quarantine/m/2/frobnicate", "{}", token);
  ASSERT_TRUE(bad_action.has_value());
  EXPECT_EQ(bad_action->status, 404);

  // The verification counters surface on /metrics.
  auto metrics = client.request("GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  ASSERT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("mfti_registry_verify_pass_total 1"),
            std::string::npos);
  // Two refused publishes plus the refused re-verification on promote.
  EXPECT_NE(metrics->body.find("mfti_registry_verify_fail_total 3"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("mfti_registry_quarantined_models 0"),
            std::string::npos);
  EXPECT_NE(metrics->body.find(
                "mfti_registry_verify_check_runs_total{check=\"passivity\"}"),
            std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(ServingFront, AdminDisabledWithoutConfiguredToken) {
  serving::ModelRegistry registry;
  serving::ServingEngine engine(registry);
  net::ServingFront front(engine, registry, {});
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());
  auto response = client.request("POST", "/v1/admin/rollback", "{}");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 403);
}

TEST(ServingFront, QueueOverflowShedsWith429RetryAfter) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(16, 2, 13));
  serving::ServingEngine engine(registry);
  net::ServingFrontOptions opts;
  opts.workers = 1;
  opts.max_queued = 0;  // every connection overflows: deterministic shed
  net::ServingFront front(engine, registry, opts);
  ASSERT_TRUE(front.start().is_ok());

  TestClient shed(front.port());
  auto refused = shed.request("GET", "/healthz");
  ASSERT_TRUE(refused.has_value()) << refused.status().to_string();
  EXPECT_EQ(refused->status, 429);
  EXPECT_FALSE(refused->header("retry-after").empty());

  // The accept loop must keep accepting (and shedding) after the first
  // overflow — a stalled accept loop would time these out.
  for (int i = 0; i < 5; ++i) {
    TestClient again(front.port());
    auto r = again.request("GET", "/healthz");
    ASSERT_TRUE(r.has_value()) << r.status().to_string();
    EXPECT_EQ(r->status, 429);
  }
}

TEST(ServingFront, RateLimitedClientDoesNotAffectOthers) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(16, 2, 14));
  serving::ServingEngine engine(registry);
  net::ServingFrontOptions opts;
  // Burst of 2, negligible refill: the third request of one key must be
  // refused while a fresh key still passes.
  opts.rate.tokens_per_second = 1e-6;
  opts.rate.burst = 2.0;
  net::ServingFront front(engine, registry, opts);
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());

  int saw_429 = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = client.request("POST", "/v1/eval", eval_body("m", 1),
                            {{"X-API-Key", "greedy"}});
    ASSERT_TRUE(r.has_value());
    if (r->status == 429) {
      ++saw_429;
      EXPECT_FALSE(r->header("retry-after").empty());
    }
  }
  EXPECT_EQ(saw_429, 1);

  auto other = client.request("POST", "/v1/eval", eval_body("m", 1),
                              {{"X-API-Key", "polite"}});
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->status, 200);

  // Rate limiting never applies to the read-only endpoints.
  auto models = client.request("GET", "/v1/models", "",
                               {{"X-API-Key", "greedy"}});
  ASSERT_TRUE(models.has_value());
  EXPECT_EQ(models->status, 200);
}

TEST(ServingFront, DeadlineExpiryAnswers408) {
  serving::ModelRegistry registry;
  // A heavyweight model: one dense-solve per point keeps the batch busy
  // far past the 1 ms deadline.
  registry.publish("slow", make_snapshot(150, 4, 15));
  serving::ServingEngine engine(registry);
  net::ServingFront front(engine, registry, {});
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());

  auto response = client.request("POST", "/v1/eval", eval_body("slow", 400),
                                 {{"X-Deadline-Ms", "1"}});
  ASSERT_TRUE(response.has_value()) << response.status().to_string();
  EXPECT_EQ(response->status, 408) << response->body;

  // Without a deadline the same request completes.
  auto fine = client.request("POST", "/v1/eval", eval_body("slow", 4));
  ASSERT_TRUE(fine.has_value());
  EXPECT_EQ(fine->status, 200);

  // Malformed deadlines are a 400, never a wrapped-around instant 408.
  for (const char* bad :
       {"-1", "+5", "99999999999999999999", "86400001", "1x"}) {
    auto malformed = client.request("POST", "/v1/eval", eval_body("slow", 4),
                                    {{"X-Deadline-Ms", bad}});
    ASSERT_TRUE(malformed.has_value()) << bad;
    EXPECT_EQ(malformed->status, 400) << bad;
  }
}

TEST(ServingFront, DrainCompletesInFlightRequests) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(64, 2, 16));
  serving::ServingEngine engine(registry);
  auto front = std::make_unique<net::ServingFront>(
      engine, registry, net::ServingFrontOptions{});
  ASSERT_TRUE(front->start().is_ok());
  const int port = front->port();

  // Each client first completes a healthz round trip (proving the server
  // *accepted* its connection — a connect() alone only reaches the kernel
  // backlog, which a drain legitimately resets), then puts a whole eval
  // request on the wire and signals. Every request sent on an accepted
  // connection before the drain must still receive a complete 200.
  std::atomic<int> sent{0};
  std::vector<std::thread> clients;
  std::vector<int> statuses(4, -1);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([port, i, &statuses, &sent] {
      auto read_response =
          [](net::Socket& socket) -> api::Expected<net::HttpResponse> {
        net::HttpResponseParser parser;
        std::string chunk;
        while (parser.state() == net::HttpResponseParser::State::NeedMore) {
          chunk.clear();
          if (socket.read_some(&chunk, 10000) <= 0) {
            return api::Status::internal("connection lost");
          }
          parser.feed(chunk);
        }
        if (parser.state() != net::HttpResponseParser::State::Complete) {
          return api::Status::internal("bad response");
        }
        return parser.response();
      };
      auto socket = net::Socket::connect("127.0.0.1", port, 2000);
      if (!socket.has_value()) {
        ++sent;
        return;
      }
      net::HttpRequest probe;
      probe.method = "GET";
      probe.target = "/healthz";
      if (!socket->write_all(net::serialize_request(probe), 5000).is_ok() ||
          !read_response(*socket).has_value()) {
        ++sent;
        return;
      }
      net::HttpRequest req;
      req.method = "POST";
      req.target = "/v1/eval";
      req.body = eval_body("m", 64);
      const api::Status written =
          socket->write_all(net::serialize_request(req), 5000);
      ++sent;
      if (!written.is_ok()) return;
      auto response = read_response(*socket);
      if (response.has_value()) {
        statuses[static_cast<std::size_t>(i)] = response->status;
      }
    });
  }
  while (sent.load() < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  front->begin_drain();
  for (auto& t : clients) t.join();
  EXPECT_FALSE(front->running());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(statuses[static_cast<std::size_t>(i)], 200) << "client " << i;
  }

  // After the drain the port refuses connections.
  auto gone = net::Socket::connect("127.0.0.1", port, 500);
  EXPECT_FALSE(gone.has_value());
}

// --- request tracing ---------------------------------------------------------

TEST(ServingFront, TraceIdPropagatesEndToEnd) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(16, 2, 21));
  serving::ServingEngine engine(registry);
  net::ServingFrontOptions opts;
  opts.admin_token = "sekrit";
  net::ServingFront front(engine, registry, opts);
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());

  // A client-chosen id is echoed in the response header and keys the
  // retained trace; X-MFTI-Trace: 1 opts into the timings block.
  auto traced = client.request("POST", "/v1/eval", eval_body("m", 8),
                               {{"X-Request-Id", "client-abc"},
                                {"X-MFTI-Trace", "1"}});
  ASSERT_TRUE(traced.has_value()) << traced.status().to_string();
  ASSERT_EQ(traced->status, 200) << traced->body;
  EXPECT_EQ(traced->header("x-request-id"), "client-abc");
  auto parsed = net::parse_json(traced->body);
  ASSERT_TRUE(parsed.has_value());
  const net::Json* timings = parsed->find("timings");
  ASSERT_NE(timings, nullptr) << traced->body;
  EXPECT_EQ(timings->find("id")->as_string(), "client-abc");
  const net::Json* stages = timings->find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_NE(stages->find("queue"), nullptr);
  ASSERT_NE(stages->find("lookup"), nullptr);
  ASSERT_NE(stages->find("solve"), nullptr);
  EXPECT_EQ(stages->find("solve")->find("count")->as_number(), 8.0);
  EXPECT_GE(stages->find("solve")->find("seconds")->as_number(), 0.0);

  // Without the opt-in header there is no timings block, but the request
  // is still traced (a generated id comes back when the client sent none).
  auto plain = client.request("POST", "/v1/eval", eval_body("m", 2));
  ASSERT_TRUE(plain.has_value());
  ASSERT_EQ(plain->status, 200);
  EXPECT_EQ(net::parse_json(plain->body)->find("timings"), nullptr);
  const std::string generated(plain->header("x-request-id"));
  EXPECT_EQ(generated.rfind("req-", 0), 0u) << generated;

  // The admin ring lists both traces, newest first, with per-span
  // breakdowns on one timeline.
  auto listing = client.request("GET", "/v1/admin/trace", "",
                                {{"X-Admin-Token", "sekrit"}});
  ASSERT_TRUE(listing.has_value());
  ASSERT_EQ(listing->status, 200) << listing->body;
  auto ring = net::parse_json(listing->body);
  ASSERT_TRUE(ring.has_value());
  EXPECT_TRUE(ring->find("enabled")->as_bool());
  const net::Json* recent = ring->find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_GE(recent->size(), 2u);
  EXPECT_EQ(recent->at(0).find("id")->as_string(), generated);
  const net::Json* ours = nullptr;
  for (const net::Json& entry : recent->items()) {
    if (entry.find("id")->as_string() == "client-abc") ours = &entry;
  }
  ASSERT_NE(ours, nullptr);
  EXPECT_EQ(ours->find("endpoint")->as_string(), "eval");
  EXPECT_EQ(ours->find("status")->as_number(), 200.0);
  const net::Json* spans = ours->find("spans");
  ASSERT_NE(spans, nullptr);
  bool saw_queue = false;
  bool saw_solve = false;
  for (const net::Json& span : spans->items()) {
    const std::string& stage = span.find("stage")->as_string();
    if (stage == "queue") {
      saw_queue = true;
      // The queue span anchors the timeline at offset zero.
      EXPECT_EQ(span.find("start_seconds")->as_number(), 0.0);
    }
    if (stage == "solve") saw_solve = true;
    EXPECT_GE(span.find("seconds")->as_number(), 0.0);
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_solve);

  // The stage histograms made it to /metrics.
  auto metrics = client.request("GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  ASSERT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("mfti_stage_seconds_bucket{stage=\"queue\""),
            std::string::npos);
  EXPECT_NE(metrics->body.find("mfti_stage_seconds_bucket{stage=\"solve\""),
            std::string::npos);
  EXPECT_NE(metrics->body.find("mfti_build_info{version="),
            std::string::npos);
}

TEST(ServingFront, TraceAdminEndpointIsTokenGated) {
  serving::ModelRegistry registry;
  serving::ServingEngine engine(registry);
  {
    // No token configured: the endpoint is disabled outright.
    net::ServingFront front(engine, registry, {});
    ASSERT_TRUE(front.start().is_ok());
    TestClient client(front.port());
    auto response = client.request("GET", "/v1/admin/trace");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 403);
  }
  net::ServingFrontOptions opts;
  opts.admin_token = "sekrit";
  net::ServingFront front(engine, registry, opts);
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());
  auto wrong = client.request("GET", "/v1/admin/trace", "",
                              {{"X-Admin-Token", "nope"}});
  ASSERT_TRUE(wrong.has_value());
  EXPECT_EQ(wrong->status, 401);
  auto right = client.request("GET", "/v1/admin/trace", "",
                              {{"X-Admin-Token", "sekrit"}});
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(right->status, 200);
}

TEST(ServingFront, TracingDisabledStillEchoesIdsAtZeroCost) {
  serving::ModelRegistry registry;
  registry.publish("m", make_snapshot(16, 2, 22));
  serving::ServingEngine engine(registry);
  net::ServingFrontOptions opts;
  opts.admin_token = "sekrit";
  opts.trace.enabled = false;
  net::ServingFront front(engine, registry, opts);
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());

  // A client id is still echoed (operators correlate logs either way),
  // but nothing is recorded: no timings block even when asked for one.
  auto traced = client.request("POST", "/v1/eval", eval_body("m", 4),
                               {{"X-Request-Id", "quiet"},
                                {"X-MFTI-Trace", "1"}});
  ASSERT_TRUE(traced.has_value());
  ASSERT_EQ(traced->status, 200);
  EXPECT_EQ(traced->header("x-request-id"), "quiet");
  EXPECT_EQ(net::parse_json(traced->body)->find("timings"), nullptr);

  // Without a client id there is nothing to echo.
  auto anonymous = client.request("POST", "/v1/eval", eval_body("m", 2));
  ASSERT_TRUE(anonymous.has_value());
  ASSERT_EQ(anonymous->status, 200);
  EXPECT_TRUE(anonymous->header("x-request-id").empty());

  // The ring stays empty and says so.
  EXPECT_EQ(front.traces().traces_finished(), 0u);
  auto listing = client.request("GET", "/v1/admin/trace", "",
                                {{"X-Admin-Token", "sekrit"}});
  ASSERT_TRUE(listing.has_value());
  ASSERT_EQ(listing->status, 200);
  auto ring = net::parse_json(listing->body);
  ASSERT_TRUE(ring.has_value());
  EXPECT_FALSE(ring->find("enabled")->as_bool());
  EXPECT_EQ(ring->find("recent")->size(), 0u);

  // No stage observations leak into /metrics.
  auto metrics = client.request("GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->body.find(
                "mfti_stage_seconds_count{stage=\"solve\"} 0"),
            std::string::npos);
}

// --- the streamed /v1/eval body against the Json tree ------------------------

namespace {

/// One eval entry as a `net::Json` tree: the byte-level oracle for the
/// entries the front writes straight into the body.
net::Json tree_entry(const api::Expected<serving::EvalResponse>& response) {
  if (!response) {
    const api::Status& status = response.status();
    net::Json inner = net::Json::object();
    inner.set("code", net::Json(api::status_code_name(status.code())));
    const int http = net::http_status_for(status.code()).code;
    inner.set("http", net::Json(static_cast<double>(http)));
    inner.set("message", net::Json(status.message()));
    net::Json entry = net::Json::object();
    entry.set("error", std::move(inner));
    return entry;
  }
  net::Json values = net::Json::array();
  for (const la::CMat& m : response->values) {
    net::Json value = net::Json::object();
    value.set("rows", net::Json(static_cast<double>(m.rows())));
    value.set("cols", net::Json(static_cast<double>(m.cols())));
    net::Json re = net::Json::array();
    net::Json im = net::Json::array();
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        re.push_back(net::Json(m(i, j).real()));
        im.push_back(net::Json(m(i, j).imag()));
      }
    }
    value.set("re", std::move(re));
    value.set("im", std::move(im));
    values.push_back(std::move(value));
  }
  net::Json entry = net::Json::object();
  entry.set("model", net::Json(response->model));
  entry.set("version", net::Json(static_cast<double>(response->version)));
  entry.set("unique_points",
            net::Json(static_cast<double>(response->unique_points)));
  entry.set("values", std::move(values));
  return entry;
}

/// The whole body the tree encoder produced, trailing newline included.
std::string tree_body(
    const std::vector<api::Expected<serving::EvalResponse>>& responses,
    const net::Json* timings = nullptr) {
  net::Json list = net::Json::array();
  for (const auto& response : responses) list.push_back(tree_entry(response));
  net::Json body = net::Json::object();
  body.set("responses", std::move(list));
  if (timings != nullptr) body.set("timings", *timings);
  return body.dump() + "\n";
}

std::string request_body(const std::vector<serving::EvalRequest>& items) {
  net::Json requests = net::Json::array();
  for (const serving::EvalRequest& eval : items) {
    net::Json item = net::Json::object();
    item.set("model", net::Json(eval.model));
    net::Json list = net::Json::array();
    for (const double f : eval.freqs_hz) list.push_back(net::Json(f));
    for (const la::Complex& s : eval.points) {
      net::Json point = net::Json::array();
      point.push_back(net::Json(s.real()));
      point.push_back(net::Json(s.imag()));
      list.push_back(std::move(point));
    }
    item.set(eval.points.empty() ? "freqs_hz" : "points", std::move(list));
    requests.push_back(std::move(item));
  }
  net::Json body = net::Json::object();
  body.set("requests", std::move(requests));
  return body.dump();
}

}  // namespace

TEST(ServingFront, EvalBodyIsByteIdenticalToJsonTree) {
  using Req = serving::EvalRequest;
  serving::ModelRegistry registry;
  registry.publish("pdn14", make_snapshot(20, 14, 31));
  registry.publish("m2", make_snapshot(12, 2, 32));
  registry.publish("m2", make_snapshot(12, 2, 33));  // version 2
  ss::DescriptorSystem broken = make_system(8, 2, 34);
  broken.d(0, 1) = std::numeric_limits<double>::quiet_NaN();
  registry.publish("nan", std::make_shared<const api::ModelHandle>(broken));
  serving::ServingEngine engine(registry);
  net::ServingFront front(engine, registry, {});
  ASSERT_TRUE(front.start().is_ok());
  TestClient client(front.port());

  // Sends `items` over HTTP and checks the body against the tree encoding
  // of the same engine responses.
  const auto expect_tree = [&](const std::vector<Req>& items, int status) {
    auto response = client.request("POST", "/v1/eval", request_body(items));
    ASSERT_TRUE(response.has_value()) << response.status().to_string();
    EXPECT_EQ(response->status, status) << response->body;
    EXPECT_EQ(response->header("content-type"), "application/json");
    EXPECT_EQ(response->body, tree_body(engine.evaluate(items)));
  };

  // A single 14-port entry and a single 2-port entry (points spelling,
  // with a repeated point).
  expect_tree({Req::at_hz("pdn14", {1e1, 3.3e2, 1.7e4, 99999.5})}, 200);
  const std::vector<la::Complex> pts{{0.0, 628.0}, {-1.5, 1e4}, {0.0, 628.0}};
  expect_tree({Req::at("m2", pts)}, 200);
  // Non-finite values print as null.
  expect_tree({Req::at_hz("nan", {10.0, 2e3})}, 200);
  const std::string nan_request = request_body({Req::at_hz("nan", {10.0})});
  const auto nan_body = client.request("POST", "/v1/eval", nan_request);
  ASSERT_TRUE(nan_body.has_value());
  EXPECT_NE(nan_body->body.find("null"), std::string::npos);
  // A multi-item batch with an inline error entry answers 200; a single
  // failing item takes its error's status.
  const std::vector<Req> batch{
      Req::at_hz("m2", {50.0}),
      Req::at_hz("ghost", {50.0}),
      Req::at_hz("pdn14", {1e3, 2e3}),
  };
  expect_tree(batch, 200);
  expect_tree({Req::at_hz("ghost", {50.0})}, 404);

  // An item without a model is answered inline before the engine runs.
  {
    const std::string body =
        R"({"requests":[{"freqs_hz":[1]},{"model":"m2","freqs_hz":[75]}]})";
    auto response = client.request("POST", "/v1/eval", body);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    std::vector<api::Expected<serving::EvalResponse>> want;
    want.emplace_back(
        api::Status::invalid_argument("eval item needs a string 'model'"));
    want.push_back(engine.evaluate(Req::at_hz("m2", {75.0})));
    EXPECT_EQ(response->body, tree_body(want));
  }

  // Traced: the timings block follows the responses. Its spans are timed,
  // so the oracle takes them from the body itself.
  {
    const std::vector<Req> items{Req::at_hz("pdn14", {1e2, 1e3, 1e4})};
    auto traced = client.request("POST", "/v1/eval", request_body(items),
                                 {{"X-MFTI-Trace", "1"}});
    ASSERT_TRUE(traced.has_value());
    ASSERT_EQ(traced->status, 200) << traced->body;
    auto parsed = net::parse_json(traced->body);
    ASSERT_TRUE(parsed.has_value());
    const net::Json* timings = parsed->find("timings");
    ASSERT_NE(timings, nullptr);
    EXPECT_EQ(traced->body, tree_body(engine.evaluate(items), timings));
  }
}
