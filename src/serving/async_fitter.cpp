#include "serving/async_fitter.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace mfti::serving {

AsyncFitter::AsyncFitter(ModelRegistry& registry, api::Fitter fitter,
                         AsyncFitterOptions opts)
    : registry_(registry), fitter_(std::move(fitter)), opts_(opts) {
  opts_.workers = std::max<std::size_t>(1, opts_.workers);
  running_.resize(opts_.workers);
  workers_.reserve(opts_.workers);
  for (std::size_t slot = 0; slot < opts_.workers; ++slot) {
    workers_.emplace_back([this, slot] { worker_loop(slot); });
  }
}

AsyncFitter::~AsyncFitter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Cancel everything outstanding; the workers drain the queue (each
    // cancelled fit returns StatusCode::Cancelled almost immediately) so
    // every promise resolves before the join.
    for (Job& job : queue_) job.request.cancel.cancel();
    for (const auto& token : running_) {
      if (token) token->cancel();
    }
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<api::Expected<api::FitReport>> AsyncFitter::submit(
    api::FitRequest request, std::string publish_name) {
  Job job;
  job.request = std::move(request);
  job.publish_name = std::move(publish_name);
  std::future<api::Expected<api::FitReport>> future =
      job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      job.promise.set_value(api::Status::cancelled(
          "AsyncFitter is shutting down; fit not queued"));
      return future;
    }
    queue_.push_back(std::move(job));
  }
  wake_.notify_one();
  return future;
}

std::size_t AsyncFitter::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + running_count_;
}

void AsyncFitter::wait_idle() const {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock,
             [this] { return queue_.empty() && running_count_ == 0; });
}

void AsyncFitter::worker_loop(std::size_t slot) {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      running_[slot] = job.request.cancel;
      ++running_count_;
    }

    api::Expected<api::FitReport> report = fitter_.fit(job.request);
    if (report && !job.publish_name.empty()) {
      try {
        // The fit samples double as the verification gate's held-out set.
        const PublishResult published =
            registry_.publish(job.publish_name, *report,
                              &job.request.samples);
        if (published.quarantined) {
          report = api::Status::numerical_error(
              "model quarantined: " + published.verification.summary());
        }
      } catch (const std::exception& e) {
        report = api::Status::internal(
            std::string("fit succeeded but publish failed: ") + e.what());
      }
    }
    job.promise.set_value(std::move(report));

    {
      std::lock_guard<std::mutex> lock(mutex_);
      running_[slot].reset();
      --running_count_;
      if (queue_.empty() && running_count_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace mfti::serving
