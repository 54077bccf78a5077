// The workloads and one measured phase against `mfti_serve`.

#include "workload.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <latch>
#include <stdexcept>
#include <thread>

#include "api/api.hpp"
#include "io/snapshot.hpp"
#include "metrics/error.hpp"
#include "net/json.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace api = mfti::api;
namespace io = mfti::io;
using mfti::net::HttpResponse;
using mfti::net::Json;

namespace {

/// Server spawns per phase; set-up time is their median.
constexpr std::size_t kSetupSpawns = 15;
/// Decoded responses kept per connection for the reference check.
constexpr std::size_t kReservoir = 24;
/// Client spans kept per connection in the traced phase.
constexpr std::size_t kMaxEvalSpans = 20000;
constexpr std::size_t kMaxReasons = 8;
/// A second is quiet when the hypervisor stole less than this share of
/// the CPU time the guest wanted: at most a few jiffies, which a host
/// with neighbours shows in most seconds.
constexpr double kQuietSteal = 0.01;

std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x100000001B3ULL + stream;
  return splitmix64(&state);
}

/// 16 frequencies, uniform on 1 MHz - 1 GHz; doubles from a 64-bit
/// stream never repeat in practice, so every point misses the cache.
std::vector<double> fresh_freqs(std::uint64_t* state) {
  std::vector<double> freqs(16);
  for (double& f : freqs) {
    const double u =
        static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
    f = 1e6 + u * (1e9 - 1e6);
  }
  return freqs;
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Steal jiffies of all CPUs, and the jiffies the guest wanted to run:
/// user, nice, system, irq, softirq and steal, never idle or iowait. From
/// the first line of /proc/stat.
std::pair<double, double> steal_and_wanted() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double wanted = 0.0;
  double steal = 0.0;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(in >> v)) break;
    if (i != 3 && i != 4) wanted += v;  // 3 idle, 4 iowait
    if (i == 7) steal = v;
  }
  return {steal, wanted};
}

/// Share of the time the guest wanted to run that the hypervisor gave to
/// other guests, between two `steal_and_wanted` readings. Idle time is
/// left out, so a second in which the benchmark works harder does not
/// read as quieter or noisier for that alone.
double steal_share(const std::pair<double, double>& from,
                   const std::pair<double, double>& to) {
  return (to.first - from.first) / std::max(1.0, to.second - from.second);
}

/// Failure tally with the first few reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;
  void fail(std::string why) {
    ++failed;
    if (reasons.size() < kMaxReasons) reasons.push_back(std::move(why));
  }
  void merge_into(PhaseResult* out) const {
    out->attempted += attempted;
    out->failed += failed;
    for (const std::string& r : reasons) {
      if (out->failures.size() < kMaxReasons) out->failures.push_back(r);
    }
  }
};

/// The `"timings"` object of a traced eval response, as text.
std::string_view timings_object(std::string_view body) {
  const std::size_t key = body.rfind("\"timings\"");
  if (key == std::string_view::npos) return {};
  const std::size_t open = body.find('{', key);
  if (open == std::string_view::npos) return {};
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return body.substr(open, i - open + 1);
    }
  }
  return {};
}

/// Unlabelled series of the Prometheus exposition at `/metrics`.
std::map<std::string, double> scrape_metrics(int port) {
  std::map<std::string, double> out;
  HttpConn conn;
  HttpResponse response;
  if (!conn.connect(port) ||
      !conn.roundtrip(http_request("GET", "/metrics", ""), &response) ||
      response.status != 200) {
    return out;
  }
  const std::string& body = response.body;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || line.find('{') < space) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

struct Refit {
  std::uint64_t version = 0;
  ss::DescriptorSystem model;
  double fit_to_live_s = 0.0;
  double publish_s = 0.0;
  double live_wait_s = 0.0;
};

/// One refit of `pdn`: re-measure, fit, save a snapshot, publish it over
/// the admin endpoint and evaluate until the server answers with the new
/// version. Returns the reason on failure.
std::string run_refit(int port, std::uint64_t noise_seed,
                      const std::string& snapshot, const FleetModel& pdn,
                      SpanLog* spans, std::uint64_t request, Refit* out) {
  const sampling::SampleSet samples = pdn_measurement(noise_seed);
  const double t0 = now_s();  // samples in hand
  auto fit = api::Fitter().fit(samples, api::MftiStrategy{pdn_fit_options()});
  const double t1 = now_s();
  if (!fit) return "refit failed: " + fit.status().to_string();
  const api::Status saved =
      io::save_model_snapshot(snapshot, api::ModelHandle(fit->model));
  const double t2 = now_s();
  if (!saved.is_ok()) return "snapshot save failed: " + saved.to_string();

  HttpConn conn;
  if (!conn.connect(port)) return "refit cannot connect";
  std::string body = "{\"name\":\"pdn\",\"snapshot\":";
  mfti::net::json_escape(snapshot, &body);
  body.push_back('}');
  HttpResponse reply;
  if (!conn.roundtrip(http_request("POST", "/v1/admin/publish", body,
                                   {{"X-Admin-Token", kAdminToken}}),
                      &reply)) {
    return "publish: transport error";
  }
  const double t3 = now_s();
  if (reply.status != 200) {
    return "publish answered " + std::to_string(reply.status);
  }
  auto parsed = mfti::net::parse_json(reply.body);
  if (!parsed || parsed->find("version") == nullptr) {
    return "publish reply is not the expected JSON";
  }
  const Json* quarantined = parsed->find("quarantined");
  if (quarantined != nullptr && quarantined->as_bool()) {
    return "refit quarantined by the gate";
  }
  const auto version =
      static_cast<std::uint64_t>(parsed->find("version")->as_number());

  const std::string probe =
      http_request("POST", "/v1/eval", eval_body(pdn.name, pdn.grid));
  for (;;) {
    if (!conn.roundtrip(probe, &reply) || reply.status != 200) {
      return "live check failed";
    }
    const long seen =
        quick_check(reply.body, pdn.grid.size(), pdn.ports, pdn.ports);
    if (seen < 0) return "live check: malformed response";
    if (static_cast<std::uint64_t>(seen) >= version) break;
    if (now_s() - t3 > 30.0) return "new version never went live";
  }
  const double t4 = now_s();
  if (spans != nullptr) {
    const int root = spans->add("refit", request, -1, t0, t4);
    spans->add("api.fit", request, root, t0, t1);
    spans->add("io.snapshot_save", request, root, t1, t2);
    spans->add("serving.admin_publish", request, root, t2, t3);
    spans->add("serving.live_wait", request, root, t3, t4);
  }
  out->version = version;
  out->model = std::move(fit->model);
  out->fit_to_live_s = t4 - t0;
  out->publish_s = t3 - t2;
  out->live_wait_s = t4 - t3;
  return "";
}

/// What one eval connection saw during the window.
struct Reader {
  struct Seen {
    const FleetModel* model;
    std::uint64_t version;
  };
  struct Stored {
    const FleetModel* model;
    std::vector<double> freqs;
    std::string body;
  };
  std::vector<double> latency;
  std::vector<double> done;
  std::vector<Seen> seen;
  std::vector<Stored> reservoir;
  std::map<std::string, std::vector<double>> stage_us;
  Tally tally;
  SpanLog spans;
};

void reader_loop(std::size_t c, const Workload& w, Traffic& traffic, int port,
                 bool traced, std::latch& start,
                 const std::atomic<bool>& stop, Reader* r) {
  HttpConn conn;
  const bool connected = conn.connect(port);
  start.arrive_and_wait();
  if (!connected) {
    ++r->tally.attempted;
    r->tally.fail("connect failed");
    return;
  }
  std::uint64_t pick = stream_seed(w.seed ^ 0x5A5A5A5AULL, c);
  HttpResponse response;
  for (std::uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
    const EvalCall& call = traffic.next(c, k);
    double t0 = 0.0;
    double t1 = 0.0;
    ++r->tally.attempted;
    if (!conn.roundtrip(call.raw, &response, &t0, &t1)) {
      r->tally.fail("transport error");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    r->latency.push_back(t1 - t0);
    r->done.push_back(t1);
    if (response.status != 200) {
      r->tally.fail("eval answered " + std::to_string(response.status));
      continue;
    }
    const std::string& body = response.body;
    const std::size_t ports = call.model->ports;
    const long version = quick_check(body, call.freqs.size(), ports, ports);
    if (version < 0) {
      r->tally.fail("malformed eval response");
      continue;
    }
    r->seen.push_back({call.model, static_cast<std::uint64_t>(version)});
    // Uniform reservoir over the window, decoded after it.
    const std::uint64_t n = r->seen.size();
    if (r->reservoir.size() < kReservoir) {
      r->reservoir.push_back({call.model, call.freqs, body});
    } else if (const std::uint64_t j = splitmix64(&pick) % n; j < kReservoir) {
      r->reservoir[j] = {call.model, call.freqs, body};
    }
    if (w.think_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          splitmix64(&pick) % static_cast<std::uint64_t>(w.think_us)));
    }
    if (traced) {
      if (r->spans.spans().size() < kMaxEvalSpans) {
        r->spans.add("eval", (static_cast<std::uint64_t>(c) << 40) | k, -1, t0,
                     t1);
      }
      auto timings = mfti::net::parse_json(timings_object(body));
      const Json* stages = timings ? timings->find("stages") : nullptr;
      if (stages == nullptr) {
        r->tally.fail("traced response without timings");
        continue;
      }
      for (const auto& [name, stage] : stages->members()) {
        const Json* seconds = stage.find("seconds");
        if (seconds != nullptr) {
          r->stage_us[name].push_back(seconds->as_number() * 1e6);
        }
      }
    }
  }
}

}  // namespace

std::optional<Workload> Workload::named(const std::string& name,
                                        std::uint64_t seed, double seconds) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.seconds = seconds;
  if (name == "small_hot") {
    w.kind = Kind::SmallHot;
    w.readers = 4;
    w.tail_refits = 5;
  } else if (name == "pdn_fresh") {
    w.kind = Kind::PdnFresh;
    w.readers = 2;
    w.think_us = 2000;
    w.tail_refits = 5;
  } else if (name == "pdn_refit") {
    w.kind = Kind::PdnRefit;
    w.readers = 2;
    w.think_us = 2000;
    w.refit_in_window = true;
  } else {
    return std::nullopt;
  }
  return w;
}

std::uint64_t refit_noise_seed(std::uint64_t seed, std::size_t k) {
  return stream_seed(seed ^ 0xF17F17F1ULL, k);
}

Traffic::Traffic(const Workload& w, const Fleet& fleet, bool traced)
    : w_(w), fleet_(fleet), traced_(traced), fresh_(w.readers) {
  for (std::size_t s = 0; s < w.readers; ++s) {
    fresh_[s].state = stream_seed(w.seed, s);
  }
  for (const FleetModel& m : fleet.models) {
    fixed_[m.name] = {&m, m.grid, raw_for(eval_body(m.name, m.grid))};
  }
}

std::string Traffic::raw_for(const std::string& body) const {
  std::map<std::string, std::string> headers;
  if (traced_) headers["X-MFTI-Trace"] = "1";
  return http_request("POST", "/v1/eval", body, std::move(headers));
}

const EvalCall& Traffic::next(std::size_t conn, std::uint64_t k) {
  switch (w_.kind) {
    case Kind::SmallHot:
      return fixed_.at("ic" + std::to_string((conn + k) % 4));
    case Kind::PdnRefit:
      return fixed_.at("pdn");
    case Kind::PdnFresh:
      break;
  }
  Fresh& f = fresh_[conn];
  f.call.model = &fleet_.get("pdn");
  f.call.freqs = fresh_freqs(&f.state);
  f.call.raw = raw_for(eval_body("pdn", f.call.freqs));
  return f.call;
}

std::vector<EvalCall> Traffic::first_touch() const {
  switch (w_.kind) {
    case Kind::SmallHot:
      return {fixed_.at("ic0"), fixed_.at("ic1"), fixed_.at("ic2"),
              fixed_.at("ic3")};
    case Kind::PdnRefit:
      return {fixed_.at("pdn")};
    case Kind::PdnFresh:
      break;
  }
  // Its own stream, restarted for every spawn so each set-up does the
  // same work; disjoint from the window's streams.
  std::uint64_t state = stream_seed(w_.seed, w_.readers);
  EvalCall call;
  call.model = &fleet_.get("pdn");
  call.freqs = fresh_freqs(&state);
  call.raw = raw_for(eval_body("pdn", call.freqs));
  return {call};
}

EvalSummary summarize_evals(const PhaseResult& p) {
  constexpr std::size_t kChunk = 1000;
  EvalSummary out;
  const std::size_t seconds = p.steal_per_second.size();
  std::vector<std::vector<double>> by_second(seconds);
  for (std::size_t i = 0; i < p.latency_s.size(); ++i) {
    const double done = p.done_s[i];
    if (done >= 0.0 && static_cast<std::size_t>(done) < seconds) {
      by_second[static_cast<std::size_t>(done)].push_back(p.latency_s[i]);
    }
  }
  // Every quiet second; when those are fewer than a quarter of the window
  // or hold less than one chunk, the next quietest ones, ties included.
  std::vector<std::size_t> order(seconds);
  for (std::size_t i = 0; i < seconds; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p.steal_per_second[a] < p.steal_per_second[b];
  });
  std::vector<std::size_t> chosen;
  std::size_t count = 0;
  for (const std::size_t s : order) {
    const double steal = p.steal_per_second[s];
    if (steal >= kQuietSteal && chosen.size() >= (seconds + 3) / 4 &&
        count >= kChunk && steal > p.steal_per_second[chosen.back()]) {
      break;
    }
    chosen.push_back(s);
    count += by_second[s].size();
  }
  std::sort(chosen.begin(), chosen.end());
  std::vector<double> pooled;
  for (const std::size_t s : chosen) {
    pooled.insert(pooled.end(), by_second[s].begin(), by_second[s].end());
  }
  const std::size_t n = pooled.size();
  const std::size_t chunks = std::max<std::size_t>(1, n / kChunk);
  std::vector<double> p99;
  for (std::size_t i = 0; i < chunks && n > 0; ++i) {
    p99.push_back(quantile(
        std::vector<double>(
            pooled.begin() + static_cast<std::ptrdiff_t>(i * n / chunks),
            pooled.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / chunks)),
        0.99));
  }
  out.p50_ms = quantile(pooled, 0.50) * 1e3;
  out.p99_ms = median(p99) * 1e3;
  out.rps = chosen.empty() ? 0.0
                           : static_cast<double>(n) /
                                 static_cast<double>(chosen.size());
  out.samples = n;
  out.seconds = chosen.size();
  out.chunks = p99.size();
  return out;
}

PhaseResult run_phase(const Workload& w, const Fleet& fleet,
                      ResponseChecker& checker, const std::string& serve_bin,
                      const std::string& work_dir, bool traced) {
  PhaseResult out;
  const std::string phase_dir = work_dir + (traced ? "/traced" : "/plain");
  fs::remove_all(phase_dir);
  fs::create_directories(phase_dir);
  const std::string fleet_dir = phase_dir + "/fleet";
  fs::copy(fleet.dir, fleet_dir, fs::copy_options::recursive);
  const FleetModel& pdn = fleet.get("pdn");
  Traffic traffic(w, fleet, traced);
  ServerProcess server(serve_bin, fleet_dir, phase_dir, traced);
  Tally setup;

  // --- set-up: spawn, warm restart, first touch -----------------------------
  for (std::size_t i = 0; i < kSetupSpawns; ++i) {
    const std::vector<EvalCall> calls = traffic.first_touch();
    std::vector<HttpResponse> replies(calls.size());
    const double t0 = now_s();
    if (!server.start()) {
      throw std::runtime_error("mfti_serve did not start; see " + phase_dir +
                               "/server.log");
    }
    HttpConn conn;
    conn.connect(server.port());
    std::vector<bool> ok(calls.size(), false);
    for (std::size_t m = 0; m < calls.size(); ++m) {
      ok[m] = conn.roundtrip(calls[m].raw, &replies[m]);
    }
    out.setup_s.push_back(now_s() - t0);
    for (std::size_t m = 0; m < calls.size(); ++m) {
      ++setup.attempted;
      if (!ok[m] || replies[m].status != 200) {
        setup.fail("first touch of " + calls[m].model->name + " failed");
        continue;
      }
      const std::string why = checker.check(
          replies[m].body, calls[m].model->name, calls[m].freqs);
      if (!why.empty()) setup.fail("first touch: " + why);
    }
    if (i + 1 < kSetupSpawns) server.stop();
  }
  setup.merge_into(&out);

  // --- the timed window -----------------------------------------------------
  std::vector<Reader> readers(w.readers);
  std::vector<Refit> refits;
  Tally refit_tally;
  SpanLog refit_spans;
  std::atomic<bool> stop{false};
  std::latch start(static_cast<std::ptrdiff_t>(w.readers) + 1 +
                   (w.refit_in_window ? 1 : 0));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.readers; ++c) {
    threads.emplace_back([&, c] {
      Reader& r = readers[c];
      try {
        reader_loop(c, w, traffic, server.port(), traced, start, stop, &r);
      } catch (const std::exception& e) {
        r.tally.fail(std::string("reader stopped: ") + e.what());
      }
    });
  }
  std::size_t next_refit = 0;
  const auto refit_one = [&] {
    const std::size_t k = next_refit++;
    ++refit_tally.attempted;
    Refit r;
    const std::string snapshot =
        fs::absolute(phase_dir + "/pdn-refit-" + std::to_string(k) + ".mfti")
            .string();
    const std::string why =
        run_refit(server.port(), refit_noise_seed(w.seed, k), snapshot, pdn,
                  traced ? &refit_spans : nullptr, k, &r);
    if (!why.empty()) {
      refit_tally.fail(why);
      return;
    }
    checker.add_version(pdn.name, r.version, r.model);
    refits.push_back(std::move(r));
  };
  std::thread refitter;
  if (w.refit_in_window) {
    // Back to back for the whole window, so readers see the same mix
    // throughout; the refit running when the window ends completes.
    refitter = std::thread([&] {
      start.arrive_and_wait();
      try {
        while (!stop.load()) refit_one();
      } catch (const std::exception& e) {
        refit_tally.fail(std::string("refits stopped: ") + e.what());
      }
    });
  }
  start.arrive_and_wait();
  const auto clock_start = std::chrono::steady_clock::now();
  const double t_start = now_s();
  const double cpu_start = cpu_seconds();
  const auto steal_start = steal_and_wanted();
  // Whole seconds; the steal share of each is sampled at its end.
  auto steal_prev = steal_start;
  const long window_seconds = std::max(1L, std::lround(w.seconds));
  for (long sec = 1; sec <= window_seconds; ++sec) {
    std::this_thread::sleep_until(clock_start + std::chrono::seconds(sec));
    const auto steal_now = steal_and_wanted();
    out.steal_per_second.push_back(steal_share(steal_prev, steal_now));
    steal_prev = steal_now;
  }
  stop.store(true);
  const double t_stop = now_s();
  const double cpu_stop = cpu_seconds();
  const auto steal_stop = steal_and_wanted();
  for (std::thread& t : threads) t.join();
  // Before the refit in flight publishes: the live version then still has
  // the window's traffic on its counters.
  out.rss_mb = server.peak_rss_mb();
  out.server_metrics = scrape_metrics(server.port());
  if (refitter.joinable()) refitter.join();

  out.window_s = t_stop - t_start;
  out.client_cpu_share =
      (cpu_stop - cpu_start) /
      (out.window_s * static_cast<double>(std::thread::hardware_concurrency()));
  out.steal_share = steal_share(steal_start, steal_stop);

  // --- tail refits: no eval traffic ------------------------------------------
  for (std::size_t k = 0; k < w.tail_refits; ++k) refit_one();
  server.stop();

  // --- checks off the timed path --------------------------------------------
  std::vector<std::pair<double, double>> evals;  // (done, latency)
  for (Reader& r : readers) {
    for (std::size_t i = 0; i < r.latency.size(); ++i) {
      evals.emplace_back(r.done[i] - t_start, r.latency[i]);
    }
    // Claimed versions must be published ones and never go backwards on
    // one connection.
    std::map<const FleetModel*, std::uint64_t> last;
    for (const Reader::Seen& s : r.seen) {
      if (!checker.knows(s.model->name, s.version)) {
        r.tally.fail("claims unpublished version " + std::to_string(s.version));
      } else if (s.version < last[s.model]) {
        r.tally.fail("version went backwards");
      }
      last[s.model] = std::max(last[s.model], s.version);
    }
    for (const Reader::Stored& s : r.reservoir) {
      const std::string why = checker.check(s.body, s.model->name, s.freqs);
      if (!why.empty()) r.tally.fail(why);
    }
    r.tally.merge_into(&out);
    for (auto& [name, values] : r.stage_us) {
      auto& all = out.stage_us[name];
      all.insert(all.end(), values.begin(), values.end());
    }
    if (traced) out.spans.push_back(std::move(r.spans));
  }
  std::sort(evals.begin(), evals.end());
  for (const auto& [done, latency] : evals) {
    out.done_s.push_back(done);
    out.latency_s.push_back(latency);
  }
  refit_tally.merge_into(&out);
  for (const Refit& r : refits) {
    out.fit_to_live_s.push_back(r.fit_to_live_s);
    out.publish_ms.push_back(r.publish_s * 1e3);
    out.live_wait_ms.push_back(r.live_wait_s * 1e3);
    out.fit_err.push_back(mfti::metrics::model_error(r.model, pdn_held_out()));
  }
  if (traced) out.spans.push_back(std::move(refit_spans));
  return out;
}

}  // namespace perfbench
