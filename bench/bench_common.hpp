/// \file bench_common.hpp
/// \brief Shared fixtures for the paper-reproduction benches: the Example-1
/// ground-truth system (order-150, 30 ports, full-rank D) and the Example-2
/// synthetic PDN data sets, plus small output helpers.

#pragma once

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "io/csv.hpp"
#include "linalg/matrix.hpp"
#include "loewner/realization.hpp"
#include "metrics/stopwatch.hpp"
#include "netgen/mna.hpp"
#include "netgen/pdn.hpp"
#include "sampling/dataset.hpp"
#include "sampling/grid.hpp"
#include "sampling/noise.hpp"
#include "sampling/sampler.hpp"
#include "statespace/random_system.hpp"
#include "util/knobs.hpp"

namespace mfti::bench {

/// Example 1 of the paper: "an order-150 system with 30 ports". The paper
/// does not publish the system; this seeded random stable system of the
/// same order, port count and rank(D) substitutes for it.
/// rank(D) = 30 is required for the Fig. 1 drop positions (150 / 180 / 180).
inline ss::DescriptorSystem example1_system(std::uint64_t seed = 20100613) {
  la::Rng rng(seed);
  ss::RandomSystemOptions opts;
  opts.order = 150;
  opts.num_outputs = 30;
  opts.num_inputs = 30;
  opts.rank_d = 30;
  opts.f_min_hz = 10.0;
  opts.f_max_hz = 1e5;
  return ss::random_stable_mimo(opts, rng);
}

/// Example 1 sampling band.
inline constexpr double kExample1FMin = 10.0;
inline constexpr double kExample1FMax = 1e5;

/// Example 2 of the paper: measured 14-port PDN data (proprietary),
/// substituted by the synthetic PDN of netgen::make_pdn_circuit
/// (src/netgen/pdn.hpp says why the substitute exercises the same path).
inline netgen::Circuit example2_pdn_circuit(std::uint64_t seed = 20100614) {
  la::Rng rng(seed);
  netgen::PdnOptions opts;  // 6x6 grid, 6 decaps, 14 ports
  return netgen::make_pdn_circuit(opts, rng);
}

/// LTI (rational) view of the same PDN, for poles/diagnostics.
inline ss::DescriptorSystem example2_pdn(std::uint64_t seed = 20100614) {
  return example2_pdn_circuit(seed).build_impedance_system();
}

/// Example 2 band (board-level PDN).
inline constexpr double kPdnFMin = 1e6;
inline constexpr double kPdnFMax = 1e9;

/// Measurement noise injected into the "measured" PDN data: -60 dB relative
/// per entry, the accuracy class of a calibrated VNA. (The paper's data is
/// real measurements whose noise level is not stated.)
inline constexpr double kPdnNoise = 1e-3;

/// Skin-effect onset: conductor losses grow as sqrt(f) above ~10 MHz, so
/// the sampled response is not exactly rational — like the measured data
/// the paper's Example 2 uses.
inline constexpr double kPdnSkinHz = 1e7;

/// Test 1 of Table 1: 100 uniformly distributed samples + noise.
inline sampling::SampleSet table1_test1_data(const netgen::Circuit& pdn,
                                             std::uint64_t noise_seed = 7) {
  auto data = netgen::sample_s_parameters(
      pdn, sampling::linear_grid(kPdnFMin, kPdnFMax, 100), 50.0, kPdnSkinHz);
  la::Rng rng(noise_seed);
  return sampling::add_noise(data, kPdnNoise, rng);
}

/// Test 2 of Table 1: 100 poorly distributed samples concentrated in the
/// high-frequency band (only ~2 samples below 200 MHz) + noise.
inline sampling::SampleSet table1_test2_data(const netgen::Circuit& pdn,
                                             std::uint64_t noise_seed = 8) {
  auto data = netgen::sample_s_parameters(
      pdn, sampling::clustered_high_grid(kPdnFMin, kPdnFMax, 100, 0.4), 50.0,
      kPdnSkinHz);
  la::Rng rng(noise_seed);
  return sampling::add_noise(data, kPdnNoise, rng);
}

/// Order selection used by all Loewner-based rows of Table 1: truncate at
/// the -40 dB singular-value floor (10x the injected noise), the knee where
/// the data stops carrying system information.
inline loewner::RealizationOptions table1_realization() {
  loewner::RealizationOptions opts;
  opts.selection = loewner::OrderSelection::Tolerance;
  opts.rank_tol = 1e-2;
  return opts;
}

// --- shared measurement helpers ---------------------------------------------

/// Best-of-`repeats` wall time of `body` in seconds (the standard timing
/// discipline of the perf benches; change it here, not per-bench).
template <typename F>
double best_seconds(int repeats, F&& body) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    metrics::Stopwatch sw;
    body();
    best = std::min(best, sw.seconds());
  }
  return best;
}

/// Largest entry-wise |a - b| between two same-shape matrices.
template <typename T>
double max_diff(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      m = std::max(m, la::detail::abs_value(a(i, j) - b(i, j)));
  return m;
}

// --- machine-readable benchmark output (CI perf trajectory) -----------------

/// Command-line arguments shared by the perf benches: positional arguments
/// plus an optional `--json <path>` pair anywhere on the line. Positional
/// parsing in the benches is unaffected by the flag's presence. A trailing
/// `--json` without a path is a usage error (reported on stderr and marked
/// invalid so benches can exit non-zero instead of misparsing).
struct BenchArgs {
  std::vector<std::string> positional;
  std::string json_path;  // empty: no JSON output requested
  bool valid = true;

  /// First positional argument as a positive integer, or `fallback` when
  /// absent; malformed values flag the args invalid.
  int positional_int(int fallback) {
    if (positional.empty()) return fallback;
    const auto value = util::parse_uint(positional.front(), INT_MAX);
    if (!value || *value == 0) {
      std::fprintf(stderr, "bad positional argument '%s' (want a positive "
                   "integer)\n", positional.front().c_str());
      valid = false;
      return fallback;
    }
    return static_cast<int>(*value);
  }
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 < argc) {
        out.json_path = argv[++i];
      } else {
        std::fprintf(stderr, "--json needs a path argument\n");
        out.valid = false;
      }
    } else {
      out.positional.push_back(arg);
    }
  }
  return out;
}

/// Collects named metrics (each a set of numeric fields) and writes them as
/// the one-benchmark JSON document consumed by bench/compare_bench.py:
///
///   {"bench": "<name>",
///    "metrics": [{"name": "...", "seconds": 1.25e-3, ...}, ...]}
///
/// Nonfinite values are emitted as null so the document always stays valid
/// JSON.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  void add(const std::string& name,
           std::initializer_list<std::pair<const char*, double>> fields) {
    Metric m;
    m.name = name;
    m.fields.assign(fields.begin(), fields.end());
    metrics_.push_back(std::move(m));
  }

  /// Write the document to `path`; "" is a no-op. Returns false (after
  /// printing a diagnostic) when the file cannot be written.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "[json] cannot open %s for writing\n",
                   path.c_str());
      return false;
    }
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"metrics\": [";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
          << metrics_[i].name << "\"";
      for (const auto& [key, value] : metrics_[i].fields) {
        out << ", \"" << key << "\": ";
        if (std::isfinite(value)) {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.12g", value);
          out << buf;
        } else {
          out << "null";
        }
      }
      out << "}";
    }
    out << "\n  ]\n}\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "[json] write to %s failed\n", path.c_str());
      return false;
    }
    std::printf("[json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Metric {
    std::string name;
    std::vector<std::pair<std::string, double>> fields;
  };
  std::string bench_;
  std::vector<Metric> metrics_;
};

/// Write a CSV next to the binary under bench_out/ (best effort: failures
/// to create the directory only disable the CSV, never the bench).
inline void write_csv(const io::CsvTable& table, const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  if (ec) return;
  try {
    table.write_file("bench_out/" + name);
    std::printf("[csv] wrote bench_out/%s\n", name.c_str());
  } catch (const std::exception&) {
    // Output directory not writable; stdout already has the numbers.
  }
}

}  // namespace mfti::bench
