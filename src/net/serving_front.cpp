#include "net/serving_front.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <queue>
#include <utility>

#include "io/snapshot.hpp"
#include "net/json.hpp"
#include "net/status_http.hpp"
#include "util/knobs.hpp"

namespace mfti::net {

namespace {

using Clock = std::chrono::steady_clock;

/// "keyA=4,keyB=2" -> {{"keyA",4},{"keyB",2}}; malformed entries are
/// diagnosed and skipped.
void parse_client_weights(std::string_view spec,
                          std::map<std::string, std::size_t>* weights) {
  while (!spec.empty()) {
    std::size_t comma = spec.find(',');
    const std::string_view entry = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{}
                                           : spec.substr(comma + 1);
    const std::size_t eq = entry.find('=');
    const std::optional<std::uint64_t> weight =
        eq == std::string_view::npos ? std::nullopt
                                     : util::parse_uint(entry.substr(eq + 1));
    if (eq == 0 || !weight || *weight == 0) {
      std::fprintf(stderr,
                   "[mfti] malformed MFTI_HTTP_CLIENT_WEIGHTS entry '%.*s' "
                   "(want key=weight with weight >= 1); skipping it\n",
                   static_cast<int>(entry.size()), entry.data());
      continue;
    }
    (*weights)[std::string(entry.substr(0, eq))] =
        static_cast<std::size_t>(*weight);
  }
}

/// Token comparison whose timing depends only on the (attacker-known)
/// provided length — ordinary == short-circuits on the first mismatching
/// byte, a timing side channel for guessing the admin token remotely.
bool equals_constant_time(std::string_view provided,
                          std::string_view secret) {
  unsigned char diff = provided.size() == secret.size() ? 0 : 1;
  for (std::size_t i = 0; i < provided.size(); ++i) {
    const unsigned char s =
        secret.empty() ? 0
                       : static_cast<unsigned char>(secret[i % secret.size()]);
    diff |= static_cast<unsigned char>(provided[i]) ^ s;
  }
  return diff == 0;
}

HttpResponse json_response(int status, const Json& body) {
  HttpResponse response;
  response.status = status;
  response.headers["Content-Type"] = "application/json";
  response.body = body.dump();
  response.body.push_back('\n');
  return response;
}

/// The one place an `api::Status` becomes a wire error: HTTP status from
/// the `status_http.hpp` table, JSON body carrying code name and message.
HttpResponse error_response(const api::Status& status) {
  const HttpStatus hs = http_status_for(status.code());
  Json inner = Json::object();
  inner.set("code", Json(api::status_code_name(status.code())));
  inner.set("http", Json(static_cast<double>(hs.code)));
  inner.set("message", Json(status.message()));
  Json body = Json::object();
  body.set("error", std::move(inner));
  return json_response(hs.code, body);
}

/// Protocol-level refusals with no `api::StatusCode` origin (shed, auth,
/// malformed HTTP).
HttpResponse http_error_response(int status, const std::string& message) {
  Json inner = Json::object();
  inner.set("code", Json("http"));
  inner.set("http", Json(static_cast<double>(status)));
  inner.set("message", Json(message));
  Json body = Json::object();
  body.set("error", std::move(inner));
  return json_response(status, body);
}

Json error_entry(const api::Status& status) {
  Json inner = Json::object();
  inner.set("code", Json(api::status_code_name(status.code())));
  inner.set("http",
            Json(static_cast<double>(http_status_for(status.code()).code)));
  inner.set("message", Json(status.message()));
  Json entry = Json::object();
  entry.set("error", std::move(inner));
  return entry;
}

/// A number as `Json::dump` prints it: `%.17g` (which `to_chars` in
/// general format at precision 17 spells byte for byte), `null` when not
/// finite.
void append_number(double value, std::string* out) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buf[32];
  const auto done = std::to_chars(buf, buf + sizeof buf, value,
                                  std::chars_format::general, 17);
  out->append(buf, done.ptr);
}

/// Upper bound on the bytes `append_eval_entry` writes: a `%.17g` number
/// takes at most 24 characters plus its comma.
std::size_t eval_entry_bound(const serving::EvalResponse& eval) {
  std::size_t bytes = 128 + 6 * eval.model.size();
  for (const la::CMat& value : eval.values) bytes += 96 + 50 * value.size();
  return bytes;
}

/// One successful `/v1/eval` entry, written straight into the body with
/// the bytes the `Json` tree would dump: keys in sorted order (`model`,
/// `unique_points`, `values`, `version`; per value `cols`, `im`, `re`,
/// `rows`), entries row-major. No tree of per-number nodes is built.
void append_eval_entry(const serving::EvalResponse& eval, std::string* out) {
  out->append("{\"model\":");
  json_escape(eval.model, out);
  out->append(",\"unique_points\":");
  append_number(static_cast<double>(eval.unique_points), out);
  out->append(",\"values\":[");
  for (std::size_t k = 0; k < eval.values.size(); ++k) {
    const la::CMat& m = eval.values[k];
    if (k != 0) out->push_back(',');
    out->append("{\"cols\":");
    append_number(static_cast<double>(m.cols()), out);
    out->append(",\"im\":[");
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (i != 0) out->push_back(',');
      append_number(m.data()[i].imag(), out);
    }
    out->append("],\"re\":[");
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (i != 0) out->push_back(',');
      append_number(m.data()[i].real(), out);
    }
    out->append("],\"rows\":");
    append_number(static_cast<double>(m.rows()), out);
    out->push_back('}');
  }
  out->append("],\"version\":");
  append_number(static_cast<double>(eval.version), out);
  out->push_back('}');
}

Json info_json(const serving::ModelInfo& info) {
  Json out = Json::object();
  out.set("name", Json(info.name));
  out.set("version", Json(static_cast<double>(info.version)));
  out.set("order", Json(static_cast<double>(info.order)));
  out.set("inputs", Json(static_cast<double>(info.num_inputs)));
  out.set("outputs", Json(static_cast<double>(info.num_outputs)));
  if (info.algorithm) {
    out.set("algorithm",
            Json(std::string(api::algorithm_name(*info.algorithm))));
  } else {
    out.set("algorithm", Json());
  }
  out.set("fit_seconds", Json(info.fit_seconds));
  out.set("published_at_unix_seconds",
          Json(std::chrono::duration<double>(
                   info.published_at.time_since_epoch())
                   .count()));
  out.set("history_depth", Json(static_cast<double>(info.history_depth)));
  return out;
}

/// Parse the points of one eval item — either `points` as [[re, im], ...]
/// or `freqs_hz` as [f, ...] — straight into the engine's `EvalRequest`
/// vocabulary, which uses the same two spellings. The front never converts
/// units: `freqs_hz` passes through and the engine applies the one shared
/// `s = j 2 pi f` mapping (`api::points_from_freqs_hz`).
api::Status parse_points(const Json& item, serving::EvalRequest* out) {
  const Json* points = item.find("points");
  const Json* freqs = item.find("freqs_hz");
  if ((points == nullptr) == (freqs == nullptr)) {
    return api::Status::invalid_argument(
        "eval item needs exactly one of 'points' or 'freqs_hz'");
  }
  if (points != nullptr) {
    if (!points->is_array()) {
      return api::Status::invalid_argument("'points' must be an array");
    }
    out->points.reserve(points->size());
    for (const Json& p : points->items()) {
      if (!p.is_array() || p.size() != 2 || !p.at(0).is_number() ||
          !p.at(1).is_number()) {
        return api::Status::invalid_argument(
            "each point must be a [re, im] number pair");
      }
      out->points.emplace_back(p.at(0).as_number(), p.at(1).as_number());
    }
  } else {
    if (!freqs->is_array()) {
      return api::Status::invalid_argument("'freqs_hz' must be an array");
    }
    out->freqs_hz.reserve(freqs->size());
    for (const Json& f : freqs->items()) {
      if (!f.is_number()) {
        return api::Status::invalid_argument(
            "each frequency must be a number");
      }
      out->freqs_hz.push_back(f.as_number());
    }
  }
  if (out->points.empty() && out->freqs_hz.empty()) {
    return api::Status::invalid_argument("eval item has no points");
  }
  return api::Status::ok();
}

}  // namespace

ServingFrontOptions ServingFrontOptions::from_env() {
  ServingFrontOptions opts;
  std::size_t port = 0;
  util::env_knob("MFTI_HTTP_PORT", &port, 65535);
  opts.port = static_cast<int>(port);
  util::env_knob("MFTI_HTTP_BIND", &opts.bind_address);
  util::env_knob("MFTI_HTTP_WORKERS", &opts.workers);
  util::env_knob("MFTI_HTTP_MAX_QUEUED", &opts.max_queued);
  util::env_knob("MFTI_HTTP_IDLE_TIMEOUT_MS", &opts.idle_timeout_ms);
  util::env_knob("MFTI_HTTP_MAX_BODY_BYTES", &opts.limits.max_body_bytes);
  util::env_knob("MFTI_HTTP_RATE_QPS", &opts.rate.tokens_per_second);
  util::env_knob("MFTI_HTTP_RATE_BURST", &opts.rate.burst);
  std::string weights;
  util::env_knob("MFTI_HTTP_CLIENT_WEIGHTS", &weights);
  parse_client_weights(weights, &opts.client_weights);
  util::env_knob("MFTI_HTTP_ADMIN_TOKEN", &opts.admin_token);
  util::env_knob("MFTI_HTTP_DEADLINE_MS", &opts.default_deadline_ms);
  opts.trace = obs::TraceOptions::from_env();
  return opts;
}

/// One background thread cancelling tokens at their deadline. Entries are
/// fire-and-forget: a request that completes early simply leaves its entry
/// to expire against an abandoned token (cancelling those is harmless), so
/// the hot path never needs to deregister.
class ServingFront::DeadlineTimer {
 public:
  DeadlineTimer() : thread_([this] { run(); }) {}
  ~DeadlineTimer() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }

  void add(api::CancellationToken token, Clock::time_point when) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      heap_.push(Entry{when, std::move(token)});
    }
    wake_.notify_all();
  }

 private:
  struct Entry {
    Clock::time_point when;
    api::CancellationToken token;
    bool operator>(const Entry& other) const { return when > other.when; }
  };

  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (heap_.empty()) {
        wake_.wait(lock);
        continue;
      }
      const Clock::time_point next = heap_.top().when;
      if (Clock::now() < next) {
        wake_.wait_until(lock, next);
        continue;
      }
      while (!heap_.empty() && heap_.top().when <= Clock::now()) {
        heap_.top().token.cancel();
        heap_.pop();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::thread thread_;
};

ServingFront::ServingFront(serving::ServingEngine& engine,
                           serving::ModelRegistry& registry,
                           ServingFrontOptions opts)
    : engine_(engine),
      registry_(registry),
      opts_(std::move(opts)),
      queue_(opts_.max_queued, opts_.client_weights),
      rate_limiter_(opts_.rate),
      collector_(opts_.trace),
      epoch_(Clock::now()) {}

ServingFront::~ServingFront() { begin_drain(); }

double ServingFront::now_seconds() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

api::Status ServingFront::start() {
  if (running_) return api::Status::invalid_argument("front already running");
  const api::Status bound =
      listener_.listen(opts_.bind_address, opts_.port);
  if (!bound.is_ok()) return bound;
  stop_ = false;
  running_ = true;
  deadlines_ = std::make_unique<DeadlineTimer>();
  accept_thread_ = std::thread([this] { accept_loop(); });
  const std::size_t workers = opts_.workers == 0 ? 1 : opts_.workers;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return api::Status::ok();
}

void ServingFront::begin_drain() {
  if (!running_.exchange(false)) return;
  stop_ = true;
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  // Workers drain the queue (serving ready requests once, closing idle
  // connections), then exit.
  queue_.shutdown();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  deadlines_.reset();
}

void ServingFront::accept_loop() {
  while (!stop_) {
    auto accepted = listener_.accept(100);
    if (!accepted) {
      std::fprintf(stderr, "[mfti.net] accept: %s\n",
                   accepted.status().to_string().c_str());
      continue;
    }
    if (!accepted->valid()) continue;  // poll timeout: re-check stop_
    ReadyConn conn;
    conn.socket = std::move(*accepted);
    conn.enqueued_at = now_seconds();
    conn.queued_at = conn.enqueued_at;
    if (queue_.try_push(conn)) continue;
    // Admission control: shed without ever blocking the accept loop.
    metrics_.count_shed();
    HttpResponse shed = http_error_response(
        429, "server over capacity (max_queued exceeded); retry later");
    shed.headers["Retry-After"] = "1";
    shed.headers["Connection"] = "close";
    conn.socket.write_nonblocking(serialize_response(shed));
  }
}

void ServingFront::worker_loop() {
  while (true) {
    auto popped = queue_.pop();
    if (!popped) return;  // shutdown and queue drained
    ReadyConn conn = std::move(*popped);
    const bool ready =
        !conn.pending.empty() ||
        conn.socket.wait_readable(idle_poll_backoff_ms(conn.idle_polls)) > 0;
    if (!ready) {
      ++conn.idle_polls;
      const double idle = now_seconds() - conn.enqueued_at;
      if (idle * 1000.0 > static_cast<double>(opts_.idle_timeout_ms)) {
        continue;  // keep-alive idle timeout: drop the connection
      }
      // Re-anchor the queue-wait clock: the connection was idle (the
      // client's think time), not waiting for a worker.
      conn.queued_at = now_seconds();
      if (!queue_.push_requeued(conn)) {
        // Drain in progress: one final grace poll, so a request whose
        // bytes were in flight when the drain began is still served
        // instead of dropped (the 1 ms readiness poll above may have
        // missed data that arrived a moment later).
        if (conn.socket.wait_readable(50) > 0) serve_one(conn);
      }
      continue;
    }
    if (serve_one(conn)) {
      conn.enqueued_at = now_seconds();
      conn.queued_at = conn.enqueued_at;
      conn.idle_polls = 0;
      queue_.push_requeued(conn);
    }
  }
}

bool ServingFront::serve_one(ReadyConn& conn) {
  HttpRequestParser parser(opts_.limits);
  auto state = parser.feed(conn.pending);
  conn.pending.clear();
  std::string chunk;
  while (state == HttpRequestParser::State::NeedMore) {
    chunk.clear();
    const long n = conn.socket.read_some(
        &chunk, static_cast<int>(opts_.read_timeout_ms));
    if (n <= 0) return false;  // EOF, timeout or error: drop quietly
    state = parser.feed(chunk);
  }
  const int write_timeout = static_cast<int>(opts_.write_timeout_ms);
  if (state == HttpRequestParser::State::Error) {
    HttpResponse response =
        http_error_response(parser.error_status(), parser.error_detail());
    response.headers["Connection"] = "close";
    metrics_.observe("protocol", response.status, 0.0);
    conn.socket.write_all(serialize_response(response), write_timeout);
    return false;
  }

  const HttpRequest& request = parser.request();
  conn.client_key = std::string(request.header("x-api-key"));
  const double started = now_seconds();
  // Queue wait: (re)enqueue to the start of handling — the span the fair
  // queue adds on top of pure service time (includes the readiness poll
  // and the request read). `queued_at` was measured but dropped before
  // tracing existed; it now feeds the queue span of every trace.
  const double queue_wait = std::max(0.0, started - conn.queued_at);
  // Anchor the trace timeline at queue entry so the queue span starts at
  // offset 0 and the engine's spans line up after it.
  std::shared_ptr<obs::TraceContext> trace = collector_.begin(
      request.header("x-request-id"),
      obs::TraceContext::Clock::now() -
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(queue_wait)));
  if (trace != nullptr) {
    trace->record_offset(obs::Stage::Queue, 0.0, queue_wait);
  }
  std::string endpoint = "other";
  HttpResponse response =
      handle_request(request, conn.client_key, &endpoint, trace);
  const double seconds = now_seconds() - started;
  metrics_.observe(endpoint, response.status, seconds);
  if (trace != nullptr) {
    // Echo (or mint) the request id so clients and logs correlate with
    // the ring; then retire the trace — histograms + ring retention.
    response.headers["X-Request-Id"] = trace->id();
    collector_.finish(trace, endpoint, response.status,
                      queue_wait + seconds);
  } else if (!request.header("x-request-id").empty()) {
    response.headers["X-Request-Id"] =
        std::string(request.header("x-request-id").substr(0, 128));
  }

  const bool draining = stop_;
  const bool keep = request.keep_alive() && !draining &&
                    response.headers.find("Connection") ==
                        response.headers.end();
  response.headers["Connection"] = keep ? "keep-alive" : "close";
  const api::Status written = conn.socket.write_all(
      serialize_response(response, request.method == "HEAD"), write_timeout);
  if (!written.is_ok() || !keep) return false;
  conn.pending = parser.take_residue();
  return true;
}

HttpResponse ServingFront::handle_request(
    const HttpRequest& request, const std::string& client_key,
    std::string* endpoint,
    const std::shared_ptr<obs::TraceContext>& trace) {
  const std::string_view path = request.path();
  const bool is_get = request.method == "GET" || request.method == "HEAD";

  if (path == "/healthz") {
    *endpoint = "healthz";
    if (!is_get) return http_error_response(405, "use GET");
    HttpResponse response;
    response.headers["Content-Type"] = "text/plain";
    response.body = "ok\n";
    return response;
  }
  if (path == "/metrics") {
    *endpoint = "metrics";
    if (!is_get) return http_error_response(405, "use GET");
    return handle_metrics();
  }
  if (path == "/v1/models" || path.starts_with("/v1/models/")) {
    *endpoint = "models";
    if (!is_get) return http_error_response(405, "use GET");
    return handle_models(path);
  }
  if (path == "/v1/eval") {
    *endpoint = "eval";
    if (request.method != "POST") {
      return http_error_response(405, "use POST");
    }
    RateLimiter::Decision decision;
    {
      obs::TraceContext::Scoped span(trace.get(), obs::Stage::Admission);
      decision = rate_limiter_.admit(client_key, now_seconds());
    }
    if (!decision.admitted) {
      metrics_.count_rate_limited();
      HttpResponse limited = http_error_response(
          429, "client rate limit exceeded; slow down");
      limited.headers["Retry-After"] = std::to_string(
          static_cast<long>(std::ceil(decision.retry_after_seconds)));
      return limited;
    }
    return handle_eval(request, trace);
  }
  if (path.starts_with("/v1/admin/")) {
    *endpoint = "admin";
    // The quarantine and trace listings are the read-only admin endpoints.
    const bool read_only_listing =
        (path == "/v1/admin/quarantine" || path == "/v1/admin/trace") &&
        is_get;
    if (!read_only_listing && request.method != "POST") {
      return http_error_response(405, "use POST");
    }
    return handle_admin(request, path);
  }
  return http_error_response(404, "no such endpoint: " + std::string(path));
}

HttpResponse ServingFront::handle_eval(
    const HttpRequest& request,
    const std::shared_ptr<obs::TraceContext>& trace) {
  auto parsed = parse_json(request.body);
  if (!parsed) return error_response(parsed.status());
  const Json& root = *parsed;

  // Accept {"requests": [...]} or a single bare {"model": ..., ...}.
  std::vector<const Json*> items;
  if (const Json* requests = root.find("requests")) {
    if (!requests->is_array()) {
      return error_response(api::Status::invalid_argument(
          "'requests' must be an array"));
    }
    for (const Json& item : requests->items()) items.push_back(&item);
  } else if (root.find("model") != nullptr) {
    items.push_back(&root);
  } else {
    return error_response(api::Status::invalid_argument(
        "body needs 'requests' or a single 'model' entry"));
  }

  // One deadline per HTTP request, propagated into the engine as a
  // cancellation token so expired work stops consuming pool time.
  std::size_t deadline_ms = opts_.default_deadline_ms;
  const std::string_view header = request.header("x-deadline-ms");
  if (!header.empty()) {
    // Capped at 24 h: huge values would overflow the deadline arithmetic
    // below into the past and answer a bogus 408.
    const std::optional<std::uint64_t> value =
        util::parse_uint(header, 86'400'000);
    if (!value) {
      return error_response(api::Status::invalid_argument(
          "malformed X-Deadline-Ms header (want 0..86400000)"));
    }
    deadline_ms = static_cast<std::size_t>(*value);
  }
  std::optional<api::CancellationToken> token;
  if (deadline_ms > 0) {
    token.emplace();
    deadlines_->add(*token,
                    Clock::now() + std::chrono::milliseconds(deadline_ms));
  }

  // Items that fail to parse get their error entry without touching the
  // engine; the rest dispatch as one engine batch (shared pool fan-out).
  // Each entry ends up with either a value or an error status.
  std::vector<const serving::EvalResponse*> values(items.size(), nullptr);
  std::vector<api::Status> errors(items.size());
  std::vector<serving::EvalRequest> batch;
  std::vector<std::size_t> batch_slot;  // entry index of each batch element
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Json* model = items[i]->find("model");
    if (model == nullptr || !model->is_string()) {
      errors[i] =
          api::Status::invalid_argument("eval item needs a string 'model'");
      continue;
    }
    serving::EvalRequest eval;
    eval.model = model->as_string();
    const api::Status points = parse_points(*items[i], &eval);
    if (!points.is_ok()) {
      errors[i] = points;
      continue;
    }
    eval.cancel = token;
    eval.trace = trace;
    batch_slot.push_back(i);
    batch.push_back(std::move(eval));
  }

  const auto responses = engine_.evaluate(batch);
  bool deadline_hit = false;
  for (std::size_t b = 0; b < responses.size(); ++b) {
    const std::size_t i = batch_slot[b];
    if (!responses[b]) {
      if (responses[b].status().code() == api::StatusCode::Cancelled) {
        deadline_hit = true;
      }
      errors[i] = responses[b].status();
      continue;
    }
    values[i] = &*responses[b];
  }
  if (deadline_hit) metrics_.count_deadline_expired();

  // Per-request error isolation: a multi-item batch always answers 200
  // with inline per-entry errors; a single-item request takes its entry's
  // HTTP status so plain clients see 404/422/408 directly.
  HttpResponse response;
  response.status = 200;
  if (items.size() == 1 && values[0] == nullptr) {
    response.status = http_status_for(errors[0].code()).code;
  }
  response.headers["Content-Type"] = "application/json";

  // The body is {"responses":[...]} plus the optional "timings" block, in
  // the bytes a `Json` tree would dump. Successful entries, which carry
  // every number, are written straight into the buffer, sized once; only
  // the small error entries and timings go through `Json`.
  std::string& body = response.body;
  std::size_t bound = 64;
  for (std::size_t i = 0; i < items.size(); ++i) {
    bound += values[i] != nullptr ? eval_entry_bound(*values[i])
                                  : 256 + 6 * errors[i].message().size();
  }
  body.reserve(bound);
  body.append("{\"responses\":[");
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) body.push_back(',');
    if (values[i] != nullptr) {
      append_eval_entry(*values[i], &body);
    } else {
      error_entry(errors[i]).dump_to(&body);
    }
  }
  body.push_back(']');
  // Opt-in per-request timings: the spans recorded so far (queue,
  // admission, and everything the engine just added), aggregated per
  // stage. The client sees where its own request spent its time without
  // admin access to the trace ring.
  if (trace != nullptr && request.header("x-mfti-trace") == "1") {
    std::array<double, obs::kStageCount> stage_seconds{};
    std::array<std::uint64_t, obs::kStageCount> stage_counts{};
    for (const obs::Span& span : trace->snapshot()) {
      const std::size_t s = static_cast<std::size_t>(span.stage);
      stage_seconds[s] += span.seconds;
      ++stage_counts[s];
    }
    Json stages = Json::object();
    for (std::size_t s = 0; s < obs::kStageCount; ++s) {
      if (stage_counts[s] == 0) continue;
      Json one = Json::object();
      one.set("seconds", Json(stage_seconds[s]));
      one.set("count", Json(static_cast<double>(stage_counts[s])));
      stages.set(obs::stage_name(static_cast<obs::Stage>(s)),
                 std::move(one));
    }
    Json timings = Json::object();
    timings.set("id", Json(trace->id()));
    timings.set("stages", std::move(stages));
    body.append(",\"timings\":");
    timings.dump_to(&body);
  }
  body.append("}\n");
  return response;
}

HttpResponse ServingFront::handle_models(std::string_view path) const {
  constexpr std::string_view kPrefix = "/v1/models/";
  if (path.size() > kPrefix.size() && path.starts_with(kPrefix)) {
    const std::string name(path.substr(kPrefix.size()));
    auto info = registry_.info(name);
    if (!info) return error_response(info.status());
    return json_response(200, info_json(*info));
  }
  Json models = Json::array();
  for (const serving::ModelInfo& info : registry_.list()) {
    models.push_back(info_json(info));
  }
  Json body = Json::object();
  body.set("models", std::move(models));
  return json_response(200, body);
}

namespace {

Json report_json(const serving::VerificationReport& report) {
  Json out = Json::object();
  out.set("passed", Json(report.passed));
  out.set("summary", Json(report.summary()));
  Json checks = Json::array();
  for (const serving::VerificationCheck& check : report.checks) {
    Json entry = Json::object();
    entry.set("name", Json(check.name));
    entry.set("passed", Json(check.passed));
    entry.set("value", Json(check.value));
    entry.set("threshold", Json(check.threshold));
    entry.set("detail", Json(check.detail));
    checks.push_back(std::move(entry));
  }
  out.set("checks", std::move(checks));
  return out;
}

Json quarantined_json(const serving::QuarantinedModel& q) {
  Json out = Json::object();
  out.set("name", Json(q.info.name));
  out.set("version", Json(static_cast<double>(q.info.version)));
  out.set("order", Json(static_cast<double>(q.info.order)));
  out.set("report", report_json(q.report));
  return out;
}

}  // namespace

HttpResponse ServingFront::handle_admin(const HttpRequest& request,
                                        std::string_view path) {
  if (opts_.admin_token.empty()) {
    return http_error_response(
        403, "admin endpoints disabled (no admin token configured)");
  }
  const std::string_view bearer = request.header("authorization");
  const std::string_view direct = request.header("x-admin-token");
  const std::string expected = "Bearer " + opts_.admin_token;
  if (!equals_constant_time(bearer, expected) &&
      !equals_constant_time(direct, opts_.admin_token)) {
    return http_error_response(401, "bad or missing admin token");
  }

  if (path == "/v1/admin/trace") {
    if (request.method != "GET" && request.method != "HEAD") {
      return http_error_response(405, "use GET");
    }
    return handle_trace_listing();
  }
  if (path == "/v1/admin/quarantine") {
    if (request.method != "GET" && request.method != "HEAD") {
      return http_error_response(405, "use GET");
    }
    Json list = Json::array();
    for (const serving::QuarantinedModel& q : registry_.quarantined()) {
      list.push_back(quarantined_json(q));
    }
    Json body = Json::object();
    body.set("quarantined", std::move(list));
    return json_response(200, body);
  }
  constexpr std::string_view kQuarantine = "/v1/admin/quarantine/";
  if (path.starts_with(kQuarantine)) {
    // POST /v1/admin/quarantine/{name}/{version}/promote | discard
    const std::string_view rest = path.substr(kQuarantine.size());
    const std::size_t action_slash = rest.rfind('/');
    const std::size_t version_slash =
        action_slash == std::string_view::npos
            ? std::string_view::npos
            : rest.rfind('/', action_slash - 1);
    if (action_slash == std::string_view::npos ||
        version_slash == std::string_view::npos || version_slash == 0) {
      return error_response(api::Status::invalid_argument(
          "want /v1/admin/quarantine/{name}/{version}/{promote|discard}"));
    }
    const std::string name(rest.substr(0, version_slash));
    const std::string version_text(
        rest.substr(version_slash + 1, action_slash - version_slash - 1));
    const std::string_view action = rest.substr(action_slash + 1);
    const std::optional<std::uint64_t> version =
        util::parse_uint(version_text);
    if (!version) {
      return error_response(api::Status::invalid_argument(
          "malformed quarantine version '" + version_text + "'"));
    }
    if (action == "promote") {
      bool force = false;
      if (!request.body.empty()) {
        auto parsed = parse_json(request.body);
        if (!parsed) return error_response(parsed.status());
        if (const Json* flag = parsed->find("force")) {
          if (!flag->is_bool()) {
            return error_response(api::Status::invalid_argument(
                "'force' must be a boolean"));
          }
          force = flag->as_bool();
        }
      }
      auto info = registry_.promote(name, *version, force);
      if (!info) return error_response(info.status());
      Json body = Json::object();
      body.set("name", Json(info->name));
      body.set("version", Json(static_cast<double>(info->version)));
      body.set("promoted", Json(true));
      body.set("forced", Json(force));
      return json_response(200, body);
    }
    if (action == "discard") {
      const api::Status status = registry_.discard(name, *version);
      if (!status.is_ok()) return error_response(status);
      Json body = Json::object();
      body.set("name", Json(name));
      body.set("version", Json(static_cast<double>(*version)));
      body.set("discarded", Json(true));
      return json_response(200, body);
    }
    return http_error_response(
        404, "no such quarantine action: " + std::string(action));
  }

  auto parsed = parse_json(request.body);
  if (!parsed) return error_response(parsed.status());
  const Json* name = parsed->find("name");
  if (name == nullptr || !name->is_string()) {
    return error_response(
        api::Status::invalid_argument("admin request needs a string 'name'"));
  }

  if (path == "/v1/admin/publish") {
    const Json* snapshot = parsed->find("snapshot");
    if (snapshot == nullptr || !snapshot->is_string()) {
      return error_response(api::Status::invalid_argument(
          "publish needs 'snapshot' (path to a model snapshot file)"));
    }
    auto handle = io::load_model_snapshot(snapshot->as_string());
    if (!handle) return error_response(handle.status());
    serving::PublishResult published;
    try {
      published = registry_.publish(name->as_string(), std::move(*handle));
    } catch (const std::exception& e) {
      return error_response(api::Status::internal(e.what()));
    }
    Json body = Json::object();
    body.set("name", *name);
    body.set("version", Json(static_cast<double>(published.version)));
    body.set("quarantined", Json(published.quarantined));
    if (published.quarantined) {
      body.set("report", report_json(published.verification));
    }
    return json_response(200, body);
  }
  if (path == "/v1/admin/rollback") {
    auto version = registry_.rollback(name->as_string());
    if (!version) return error_response(version.status());
    Json body = Json::object();
    body.set("name", *name);
    body.set("version", Json(static_cast<double>(*version)));
    return json_response(200, body);
  }
  return http_error_response(404,
                             "no such admin action: " + std::string(path));
}

namespace {

Json trace_json(const obs::Trace& trace) {
  Json out = Json::object();
  out.set("id", Json(trace.id));
  out.set("endpoint", Json(trace.endpoint));
  out.set("status", Json(static_cast<double>(trace.http_status)));
  out.set("start_unix_seconds", Json(trace.start_unix_seconds));
  out.set("total_seconds", Json(trace.total_seconds));
  out.set("slow", Json(trace.slow));
  Json spans = Json::array();
  for (const obs::Span& span : trace.spans) {
    Json one = Json::object();
    one.set("stage", Json(std::string(obs::stage_name(span.stage))));
    one.set("start_seconds", Json(span.start_seconds));
    one.set("seconds", Json(span.seconds));
    spans.push_back(std::move(one));
  }
  out.set("spans", std::move(spans));
  if (trace.dropped_spans > 0) {
    out.set("dropped_spans",
            Json(static_cast<double>(trace.dropped_spans)));
  }
  return out;
}

Json traces_json(const std::vector<obs::Trace>& traces) {
  Json list = Json::array();
  for (const obs::Trace& trace : traces) {
    list.push_back(trace_json(trace));
  }
  return list;
}

}  // namespace

HttpResponse ServingFront::handle_trace_listing() const {
  Json body = Json::object();
  body.set("enabled", Json(collector_.enabled()));
  body.set("slow_threshold_ms",
           Json(collector_.options().slow_threshold_ms));
  body.set("finished", Json(static_cast<double>(
                          collector_.traces_finished())));
  body.set("recent", traces_json(collector_.recent()));
  body.set("slow", traces_json(collector_.slow()));
  return json_response(200, body);
}

HttpResponse ServingFront::handle_metrics() const {
  HttpResponse response;
  response.headers["Content-Type"] = "text/plain; version=0.0.4";
  response.body = metrics_.render(registry_.size(), registry_.verify_stats(),
                                  collector_.stage_snapshot());
  return response;
}

}  // namespace mfti::net
