// Ablation A: the recursive algorithm's knobs.
//   * SelectionRule: the paper's ascending sort (best-first) vs the greedy
//     worst-first alternative;
//   * k0 (units added per iteration);
//   * threshold Th (speed/accuracy trade-off, Algorithm 2's "manually set"
//     parameter).
// All on the Table-1 Test-1 data set.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/recursive_mfti.hpp"
#include "metrics/error.hpp"
#include "metrics/stopwatch.hpp"

int main() {
  using namespace mfti;
  std::printf("=== Ablation: recursive MFTI (Algorithm 2) knobs ===\n");
  const netgen::Circuit pdn = bench::example2_pdn_circuit();
  const sampling::SampleSet data = bench::table1_test1_data(pdn);

  std::printf("%-12s %4s %8s  %6s %6s %10s %12s %6s\n", "selection", "k0",
              "Th", "iters", "units", "order", "ERR", "t(s)");
  io::CsvTable csv({"worst_first", "k0", "threshold", "iterations", "units",
                    "order", "err", "time_s"});

  for (const auto selection :
       {core::SelectionRule::BestFirst, core::SelectionRule::WorstFirst}) {
    for (const std::size_t k0 : {2, 5, 10}) {
      for (const double th : {0.2, 0.1, 0.05}) {
        core::RecursiveMftiOptions opts;
        opts.data.uniform_t = 2;
        opts.selection = selection;
        opts.units_per_iteration = k0;
        opts.threshold = th;
        opts.relative_error = true;
        opts.realization = bench::table1_realization();
        metrics::Stopwatch sw;
        const core::RecursiveMftiResult res =
            core::recursive_mfti_fit(data, opts);
        const double t = sw.seconds();
        const double err = metrics::model_error(res.model, data);
        const bool worst = selection == core::SelectionRule::WorstFirst;
        std::printf("%-12s %4zu %8.2f  %6zu %6zu %10zu %12.3e %6.2f\n",
                    worst ? "worst-first" : "best-first", k0, th,
                    res.iterations, res.used_units.size(), res.order, err, t);
        csv.add_row({worst ? 1.0 : 0.0, static_cast<double>(k0), th,
                     static_cast<double>(res.iterations),
                     static_cast<double>(res.used_units.size()),
                     static_cast<double>(res.order), err, t});
      }
    }
  }
  bench::write_csv(csv, "ablation_recursive.csv");
  std::printf("\nReading: smaller Th buys accuracy with more units and "
              "time. Best-first (the paper's literal ascending sort) "
              "converges only by exhausting the pool — the held-out set "
              "keeps the worst-fitted samples, biasing its mean high; "
              "worst-first retires those samples early and stops with a "
              "genuine subset. Larger k0 amortises the per-iteration "
              "realization cost at equal accuracy.\n");
  return 0;
}
