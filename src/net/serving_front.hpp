/// \file serving_front.hpp
/// \brief The HTTP/1.1 serving front: the codebase's first process
/// boundary, exposing a `serving::ServingEngine` + `serving::ModelRegistry`
/// pair to out-of-process clients.
///
/// Endpoints (JSON wire format in docs/serving-protocol.md):
///
///   POST /v1/eval                batched (model, points) evaluation;
///                                per-request error isolation, responses
///                                never mix model versions
///   GET  /v1/models              live-version metadata of every model
///   GET  /v1/models/{name}       metadata of one model
///   POST /v1/admin/publish       publish a model snapshot file (token);
///                                a registry verification policy may land
///                                it in quarantine ("quarantined": true)
///   POST /v1/admin/rollback      restore the previous version (token)
///   GET  /v1/admin/quarantine    list quarantined versions + reports (token)
///   POST /v1/admin/quarantine/{name}/{version}/promote
///                                re-verify and promote to live; body
///                                {"force": true} skips re-verification
///   POST /v1/admin/quarantine/{name}/{version}/discard
///                                drop a quarantined version (token)
///   GET  /v1/admin/trace         recent + slow request traces (token)
///   GET  /metrics                Prometheus text format
///   GET  /healthz                liveness probe
///
/// Architecture: one accept thread (poll-based, observes the stop flag)
/// feeds a bounded weighted-fair ready queue (`net::FairQueue`); `workers`
/// threads pop connections, parse one request, and serve it synchronously.
/// Keep-alive connections re-enter the queue between requests, so a client
/// pipelining thousands of requests shares workers fairly with everyone
/// else. Admission control: a full queue sheds new connections with `429`
/// + `Retry-After` (written nonblocking — the accept loop never stalls);
/// per-client token buckets (keyed by `X-API-Key`) refuse over-rate eval
/// requests with `429`; request deadlines (`X-Deadline-Ms` or the
/// configured default) cancel evaluation mid-batch through the engine's
/// `CancellationToken` support and answer `408`.
///
/// Observability: unless disabled (`MFTI_TRACE=0`), every request gets an
/// `obs::TraceContext` — id from the client's `X-Request-Id` header or
/// generated, echoed back in the response — that collects per-stage spans
/// (queue wait, admission, registry lookup, one solve per point) across
/// the front and the engine. Completed traces land in the collector's
/// ring (slow ones retained preferentially), feed the `mfti_stage_seconds`
/// histograms on `/metrics`, and are listed by `GET /v1/admin/trace`; a
/// client sending `X-MFTI-Trace: 1` additionally gets a `"timings"` block
/// in its `/v1/eval` response. docs/observability.md is the reference.
///
/// Shutdown: `begin_drain()` (the SIGTERM path of `tools/mfti_serve.cpp`)
/// stops accepting, lets in-flight requests complete, closes idle
/// connections, and joins every thread. The destructor drains too.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "net/http_metrics.hpp"
#include "net/qos.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "serving/model_registry.hpp"
#include "serving/serving_engine.hpp"

namespace mfti::net {

struct ServingFrontOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  ///< 0 picks an ephemeral port (see `ServingFront::port`)
  std::size_t workers = 4;
  /// Admission bound: connections waiting in the ready queue beyond the
  /// ones being served. Overflow is shed with 429 + Retry-After.
  std::size_t max_queued = 64;
  /// Keep-alive connections idle longer than this are closed.
  std::size_t idle_timeout_ms = 5000;
  /// Per-read bound while receiving one request (slowloris guard).
  std::size_t read_timeout_ms = 5000;
  std::size_t write_timeout_ms = 5000;
  HttpLimits limits;
  /// Per-client token bucket for POST /v1/eval; `tokens_per_second == 0`
  /// disables rate limiting.
  RateLimitOptions rate;
  /// Weighted-fair shares per API key (default weight 1).
  std::map<std::string, std::size_t> client_weights;
  /// Empty disables the admin endpoints entirely (403).
  std::string admin_token;
  /// Deadline applied to eval requests that carry no `X-Deadline-Ms`
  /// header; 0 means no default deadline.
  std::size_t default_deadline_ms = 0;
  /// Request tracing (ring sizes, slow threshold, master switch).
  obs::TraceOptions trace;

  /// Defaults overridden by the `MFTI_HTTP_*` environment knobs
  /// (docs/serving-protocol.md lists them; malformed values are diagnosed
  /// on stderr and ignored) plus the `MFTI_TRACE_*` tracing knobs
  /// (docs/observability.md).
  static ServingFrontOptions from_env();
};

class ServingFront {
 public:
  /// `engine` and `registry` must outlive the front.
  ServingFront(serving::ServingEngine& engine,
               serving::ModelRegistry& registry,
               ServingFrontOptions opts = {});
  ~ServingFront();

  ServingFront(const ServingFront&) = delete;
  ServingFront& operator=(const ServingFront&) = delete;

  /// Bind, listen and spawn the accept/worker/deadline threads. Fails
  /// (without threads started) when the address cannot be bound.
  api::Status start();

  /// The bound port (after a successful `start`; resolves port 0).
  int port() const { return listener_.port(); }

  bool running() const { return running_; }

  /// Graceful shutdown: stop accepting, complete in-flight requests,
  /// close idle connections, join all threads. Idempotent.
  void begin_drain();

  /// The metrics registry (shared with tests asserting counters).
  HttpMetrics& metrics() { return metrics_; }

  /// The trace collector (shared with tests asserting spans).
  obs::TraceCollector& traces() { return collector_; }

 private:
  class DeadlineTimer;

  void accept_loop();
  void worker_loop();

  /// Serve at most one request on `conn`; returns true when the
  /// connection should be requeued for keep-alive.
  bool serve_one(ReadyConn& conn);

  HttpResponse handle_request(const HttpRequest& request,
                              const std::string& client_key,
                              std::string* endpoint,
                              const std::shared_ptr<obs::TraceContext>& trace);
  HttpResponse handle_eval(const HttpRequest& request,
                           const std::shared_ptr<obs::TraceContext>& trace);
  HttpResponse handle_models(std::string_view path) const;
  HttpResponse handle_admin(const HttpRequest& request,
                            std::string_view path);
  HttpResponse handle_trace_listing() const;
  HttpResponse handle_metrics() const;

  double now_seconds() const;

  serving::ServingEngine& engine_;
  serving::ModelRegistry& registry_;
  ServingFrontOptions opts_;

  Listener listener_;
  FairQueue queue_;
  RateLimiter rate_limiter_;
  HttpMetrics metrics_;
  obs::TraceCollector collector_;
  std::unique_ptr<DeadlineTimer> deadlines_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace mfti::net
