/// \file async_fitter.hpp
/// \brief Background fit pipeline: queue `FitRequest`s, keep serving.
///
/// Fits are expensive (minutes for large Loewner pencils) while queries are
/// cheap, so a serving deployment must never block its query path on a
/// refit. `AsyncFitter` owns a small crew of fit workers consuming a FIFO
/// job queue: `submit` returns a `std::future<Expected<FitReport>>`
/// immediately, the fit runs in the background through the shared
/// `api::Fitter` facade (progress callbacks fire on the fit worker), and a
/// successful fit is atomically published into the `ModelRegistry` under
/// the submitted name — the measure/fit/publish loop of a VNA-style
/// workflow.
///
/// Cancellation uses the request's own `CancellationToken`: keep a copy,
/// `cancel()` it, and the job reports `StatusCode::Cancelled` — whether it
/// was still queued or mid-fit — and is never published, leaving the
/// registry exactly as it was. Destroying the fitter cancels every
/// outstanding job's token and drains the queue before returning, so no
/// future is ever abandoned.
///
/// ```cpp
/// serving::AsyncFitter fits(registry);
/// api::FitRequest req{samples, api::RecursiveMftiStrategy{opts}};
/// auto token = req.cancel;                     // keep a handle on the job
/// auto done = fits.submit(std::move(req), "pdn");
/// // ... keep serving the old "pdn" version ...
/// if (done.get()) { /* new version is live in the registry */ }
/// ```

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/fit_report.hpp"
#include "api/fit_request.hpp"
#include "api/fitter.hpp"
#include "api/model_handle.hpp"
#include "api/status.hpp"
#include "serving/model_registry.hpp"

namespace mfti::serving {

struct AsyncFitterOptions {
  /// Concurrent fit jobs (each is a dedicated thread — fits are
  /// long-running, so they never share the query pool).
  std::size_t workers = 1;
};

class AsyncFitter {
 public:
  /// `registry` must outlive the fitter.
  explicit AsyncFitter(ModelRegistry& registry, api::Fitter fitter = {},
                       AsyncFitterOptions opts = {});

  /// Cancels every outstanding job's token, drains the queue (each future
  /// resolves, cancelled jobs with `StatusCode::Cancelled`) and joins.
  ~AsyncFitter();

  AsyncFitter(const AsyncFitter&) = delete;
  AsyncFitter& operator=(const AsyncFitter&) = delete;

  /// Queue a fit. With a non-empty `publish_name` a successful fit is
  /// published into the registry (as `publish_name`'s next version) before
  /// the future resolves; failed or cancelled fits never touch the
  /// registry. An empty name fits without publishing.
  std::future<api::Expected<api::FitReport>> submit(
      api::FitRequest request, std::string publish_name = {});

  /// Jobs queued or running.
  std::size_t pending() const;

  /// Block until the queue is drained and every worker is idle.
  void wait_idle() const;

 private:
  struct Job {
    api::FitRequest request;
    std::string publish_name;
    std::promise<api::Expected<api::FitReport>> promise;
  };

  void worker_loop(std::size_t slot);

  ModelRegistry& registry_;
  api::Fitter fitter_;
  AsyncFitterOptions opts_;

  mutable std::mutex mutex_;
  mutable std::condition_variable wake_;
  mutable std::condition_variable idle_;
  std::deque<Job> queue_;
  /// Token of the job each worker is currently fitting (for shutdown).
  std::vector<std::optional<api::CancellationToken>> running_;
  std::size_t running_count_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mfti::serving
