/// \file workload.hpp
/// \brief The three workloads, one measured phase against `mfti_serve`,
/// and the in-process replay of the traced run.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

enum class Kind { SmallHot, PdnFresh, PdnRefit };

struct Workload {
  Kind kind = Kind::SmallHot;
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::size_t readers = 0;  ///< eval connections, one thread each
  /// Upper end of the seeded uniform pause between a reader's requests, so
  /// two connections cannot lock into one phase for a whole run.
  long think_us = 0;
  /// One thread refits back to back through the window (pdn_refit).
  bool refit_in_window = false;
  /// Refits after the window, with no eval traffic, so that every
  /// workload reports the fit-to-live metrics.
  std::size_t tail_refits = 0;

  /// Workload by name; nullopt for an unknown name.
  static std::optional<Workload> named(const std::string& name,
                                       std::uint64_t seed, double seconds);
};

/// One request of the traffic: the model, its frequencies and the bytes
/// the client sends.
struct EvalCall {
  const FleetModel* model = nullptr;
  std::vector<double> freqs;
  std::string raw;
};

/// The deterministic request stream of a workload. Connection `conn`
/// issues `next(conn, k)` as its k-th request; stream `readers` is the
/// set-up stream (first touch), disjoint from every connection's stream.
class Traffic {
 public:
  Traffic(const Workload& w, const Fleet& fleet, bool traced);
  /// Valid until the next call for the same connection; connections may
  /// call concurrently.
  const EvalCall& next(std::size_t conn, std::uint64_t k);
  /// One first request per model the workload queries.
  std::vector<EvalCall> first_touch() const;

 private:
  struct Fresh {
    std::uint64_t state = 0;  ///< the connection's frequency stream
    EvalCall call;
  };
  std::string raw_for(const std::string& body) const;
  const Workload& w_;
  const Fleet& fleet_;
  bool traced_;
  std::vector<Fresh> fresh_;               ///< per connection
  std::map<std::string, EvalCall> fixed_;  ///< each model's grid request
};

/// The noise seed of refit `k` of a run with workload seed `seed`.
std::uint64_t refit_noise_seed(std::uint64_t seed, std::size_t k);

/// What one phase (server spawn + window + tail) measured.
struct PhaseResult {
  std::vector<double> setup_s;  ///< one per spawn
  /// Eval round trips of the window, in completion order.
  std::vector<double> latency_s;
  std::vector<double> done_s;  ///< completion time of each, from window start
  double window_s = 0.0;
  std::vector<double> fit_to_live_s;
  std::vector<double> fit_err;
  double rss_mb = -1.0;
  double client_cpu_share = 0.0;
  /// Share of the machine's CPU time the hypervisor gave to other guests
  /// during the window (`steal` in /proc/stat): the noise diagnostic.
  double steal_share = 0.0;
  std::vector<double> steal_per_second;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons
  // Traced phase only.
  std::map<std::string, std::vector<double>> stage_us;  ///< per request
  std::vector<double> publish_ms;
  std::vector<double> live_wait_ms;
  std::map<std::string, double> server_metrics;  ///< /metrics samples
  std::vector<SpanLog> spans;
};

/// The eval metrics of a phase, measured over the quiet seconds of the
/// window: the one-second slices in which the hypervisor stole under 1 %
/// of the CPU time the guest wanted (`steal` in /proc/stat). When those
/// are fewer than a quarter of the slices or hold fewer than 1000 evals,
/// the next quietest slices join, ties included. Neighbours on a shared
/// host then move the metrics far less, and the selection never looks at
/// the metrics themselves. p50 is over the pooled evals of those seconds,
/// p99 the median over chunks of 1000 of them (each with 10 samples
/// beyond it), throughput their count per chosen second.
struct EvalSummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rps = 0.0;
  std::size_t samples = 0;  ///< evals in the chosen seconds
  std::size_t seconds = 0;  ///< chosen seconds
  std::size_t chunks = 0;   ///< p99 chunks
};
EvalSummary summarize_evals(const PhaseResult& p);

/// Spawn `mfti_serve` on a copy of the fleet, time its set-up, drive the
/// workload for `w.seconds`, run the tail refits, stop the server and
/// check the outputs. `checker` learns every version published.
PhaseResult run_phase(const Workload& w, const Fleet& fleet,
                      ResponseChecker& checker, const std::string& serve_bin,
                      const std::string& work_dir, bool traced);

/// Per-layer timings of the in-process replay.
struct ReplayResult {
  std::vector<double> parse_us, engine_us, encode_us, response_kb;
  std::vector<double> fit_s, tangential_ms, assembly_ms, realize_ms;
  std::vector<double> fit_residue_ms, order, verify_ms, save_ms, snapshot_kb;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  SpanLog spans;
};

/// Replay the workload's generated requests through `HttpRequestParser`,
/// `parse_json`, `ServingEngine::evaluate` and the response encoding, and
/// its refits through `Fitter::fit`, the Loewner stages, the gate and the
/// snapshot writer, timing each call.
ReplayResult replay(const Workload& w, const Fleet& fleet,
                    const ResponseChecker& checker,
                    const std::string& work_dir);

}  // namespace perfbench
