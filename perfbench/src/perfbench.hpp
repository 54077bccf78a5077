/// \file perfbench.hpp
/// \brief Shared pieces of the end-to-end benchmark: statistics, spans,
/// a minimal HTTP/1.1 client, the fleet, the response checker and the
/// `mfti_serve` process wrapper.
///
/// The benchmark drives the serving stack only through interfaces that
/// are meant to outlive the cache and codec rewrites: the `mfti_serve`
/// binary and its HTTP protocol, `api::Fitter::fit`, the Loewner stages,
/// `VerificationPolicy::verify`, snapshot save, `ModelRegistry`,
/// `ServingEngine::evaluate(EvalRequest)`, `net::Json` / `parse_json` /
/// `HttpRequestParser`, `ss::transfer_function`, `netgen` and `sampling`.
/// Its HTTP client is a thin loop over the library's `net::Socket` and
/// HTTP message layer.

#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/mfti.hpp"
#include "net/http.hpp"
#include "net/socket.hpp"
#include "sampling/dataset.hpp"
#include "serving/verification.hpp"
#include "statespace/descriptor.hpp"

namespace perfbench {

namespace ss = mfti::ss;
namespace sampling = mfti::sampling;

// --- time and statistics ---------------------------------------------------

/// Seconds on the monotonic clock.
double now_s();

/// Linear-interpolated quantile (q in [0, 1]) of unsorted `values`;
/// 0 for an empty set.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// --- spans -----------------------------------------------------------------

/// One timed interval. `parent` indexes the same log (-1 for a root);
/// spans of one request or refit share `request`.
struct Span {
  std::string name;
  std::uint64_t request = 0;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span log of one thread. Spans are written out once, when the
/// run ends (`write_spans`).
class SpanLog {
 public:
  /// Open a span now; returns its index for `end` and for children.
  int begin(std::string name, std::uint64_t request, int parent = -1);
  void end(int index);
  /// Record an interval measured elsewhere.
  int add(std::string name, std::uint64_t request, int parent, double start,
          double end);
  const std::vector<Span>& spans() const { return spans_; }
  double seconds(int index) const {
    return spans_[index].end - spans_[index].start;
  }

 private:
  std::vector<Span> spans_;
};

/// Write every span of `logs` as one JSON object per line, with its self
/// time (duration minus the time its children cover).
void write_spans(const std::string& path, const std::vector<SpanLog>& logs);

// --- HTTP ------------------------------------------------------------------

/// One keep-alive loopback connection to the server, on the library's
/// `net::Socket` and `net::HttpResponseParser`.
class HttpConn {
 public:
  bool connect(int port);

  /// Send the serialized request and read one whole response. `sent` and
  /// `done` receive the clock before the first write and at the read that
  /// completes the response. False on a transport or framing error (the
  /// connection is then closed and reopened by the next call).
  bool roundtrip(std::string_view request, mfti::net::HttpResponse* response,
                 double* sent = nullptr, double* done = nullptr);

 private:
  mfti::net::Socket socket_;
  int port_ = 0;
};

/// `net::serialize_request` of a request to the loopback server; a body
/// is sent as JSON.
std::string http_request(std::string method, std::string target,
                         std::string body,
                         std::map<std::string, std::string> headers = {});

/// `{"requests":[{"model":..., "freqs_hz":[...]}]}` with `%.17g` numbers.
std::string eval_body(const std::string& model,
                      const std::vector<double>& freqs_hz);

/// Cheap structural check of an eval response body, run on every response
/// right after its timing stops: one entry, `points` values of
/// `rows` x `cols`. Returns the version the entry claims, or -1.
long quick_check(std::string_view body, std::size_t points, std::size_t rows,
                 std::size_t cols);

// --- output check ----------------------------------------------------------

/// The body `mfti_serve` answers a one-entry eval with, in its wire format:
/// `{"responses":[{"model", "version", "unique_points", "values":[{"rows",
/// "cols", "re", "im"}]}]}`, built with `net::Json`.
std::string eval_response_body(const std::string& model,
                               std::uint64_t version,
                               std::size_t unique_points,
                               const std::vector<mfti::la::CMat>& values);

/// Relative tolerance of the decoded check: loose enough for any kernel
/// that is not LU (the modal form agrees with LU to ~3e-10 relative), far
/// tighter than any real defect.
inline constexpr double kValueRelTol = 1e-7;

/// Knows the model behind every published version and checks decoded eval
/// responses against `ss::transfer_function` of the version they claim.
class ResponseChecker {
 public:
  void add_version(const std::string& model, std::uint64_t version,
                   ss::DescriptorSystem system);
  bool knows(const std::string& model, std::uint64_t version) const;

  /// Decode `body` and check it: one entry for `model`, a known claimed
  /// version, one value per frequency, and every value within
  /// `kValueRelTol` (relative to the largest entry of the reference) of
  /// the claimed version's response. Returns "" when the response is
  /// correct, otherwise what is wrong.
  std::string check(std::string_view body, const std::string& model,
                    const std::vector<double>& freqs_hz) const;

 private:
  std::map<std::string, std::map<std::uint64_t, ss::DescriptorSystem>>
      versions_;
};

// --- fleet -----------------------------------------------------------------

/// The publish gate the server runs with (MFTI_VERIFY=1, 1 MHz - 1 GHz,
/// passivity tolerance 0.02).
mfti::serving::VerificationOptions gate_options();

/// Paper Example 2: 120 S-parameter samples of the default 14-port PDN
/// (board seed 2024) on 1 MHz - 1 GHz with -60 dB noise drawn from
/// `noise_seed`.
sampling::SampleSet pdn_measurement(std::uint64_t noise_seed);
/// Noise-free samples of the same PDN between the measurement points.
const sampling::SampleSet& pdn_held_out();
/// MFTI, t = 3, tolerance order selection at the noise knee.
mfti::core::MftiOptions pdn_fit_options();

struct FleetModel {
  std::string name;
  std::uint64_t version = 0;
  std::size_t ports = 0;
  std::vector<double> grid;  ///< the model's fixed query grid (Hz)
  ss::DescriptorSystem system;
};

struct Fleet {
  std::string dir;
  std::vector<FleetModel> models;  ///< pdn, ic0..ic3
  const FleetModel& get(const std::string& name) const;
};

/// Fit the fleet from fixed seeds and publish it durably into `dir`
/// through the gate. Throws when a model fails to fit or is quarantined.
Fleet build_fleet(const std::string& dir);

/// The three Loewner stages of an MFTI fit, timed separately.
struct SplitFit {
  ss::DescriptorSystem model;
  std::size_t order = 0;
  double tangential_s = 0.0;
  double assembly_s = 0.0;
  double realize_s = 0.0;
};
/// `build_tangential_data` -> `loewner_pair` -> `realize(d, LL, sLL)` with
/// the option propagation of `api::Fitter::fit`; the model must equal the
/// facade's.
SplitFit split_fit(const sampling::SampleSet& samples,
                   const mfti::core::MftiOptions& opts);

// --- the server process ----------------------------------------------------

/// One `mfti_serve` child on the fleet directory. Stopped (SIGTERM, then
/// SIGKILL after a grace period) and reaped by `stop` or the destructor.
class ServerProcess {
 public:
  ServerProcess(std::string binary, std::string fleet_dir,
                std::string work_dir, bool trace);
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawn and wait until the port is known. Returns false on failure.
  bool start();
  void stop();
  int port() const { return port_; }
  /// Peak resident set (VmHWM) in MB, or a negative value when unknown.
  double peak_rss_mb() const;

 private:
  std::string binary_;
  std::string fleet_dir_;
  std::string work_dir_;
  bool trace_;
  pid_t pid_ = -1;
  int port_ = 0;
};

/// The admin token the benchmark starts the server with.
inline constexpr const char* kAdminToken = "perfbench-admin";

}  // namespace perfbench
