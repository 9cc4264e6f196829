// Shared plumbing for the bench harnesses: scale flags and the attack
// configuration lists used by the paper's evaluation (§4).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "engine/engine.hpp"
#include "selfish/params.hpp"
#include "support/options.hpp"

namespace bench {

/// The paper's (d, f) attack configurations. The last entry (4,2) took the
/// authors 21.6 h in Storm; our native solver needs ~2.5 min, but it is
/// still gated behind --full for a quick default run.
std::vector<std::pair<int, int>> attack_configs(bool full);

/// The paper's γ grid {0, 0.25, 0.5, 0.75, 1}.
std::vector<double> gamma_grid();

/// The paper's p grid: [0, 0.3] in steps of 0.01 (full) or 0.05 (default).
std::vector<double> resource_grid(bool full);

/// Declares the options shared by all harnesses (--full, --epsilon,
/// --solver, --threads, --cache-dir, --metrics-out, --trace-out, --help)
/// and parses argv (with SELFISH_* environment defaults). --help prints
/// `extra_help` (when set) as a heading line, then the usage, and exits
/// 0; an unknown or malformed option prints
/// "error: …" and exits 1, like the CLI. When --trace-out is set the obs
/// NDJSON trace sink opens immediately, so every span of the harness run
/// lands in the file.
support::Options standard_options(int argc, const char* const* argv,
                                  const std::string& extra_help = "");

/// Writes a Prometheus text snapshot of the process-wide obs registry to
/// the --metrics-out path (no-op when unset). Harnesses call this right
/// before exit, so CI can archive the counters behind a BENCH_* run —
/// e.g. solver bytes/sweep and serve hit rates — next to the timing JSON.
void write_metrics_snapshot(const support::Options& options);

/// Experiment-engine configuration from the shared options: --threads
/// drives the chain fan-out, --cache-dir the result store, --store-values
/// whether entries persist warm-start value vectors.
engine::EngineOptions engine_options(const support::Options& options);

/// Analysis configuration from the shared options (--epsilon, --solver).
/// `solver_threads` = true additionally routes --threads into the
/// per-solve Bellman kernel — for harnesses that run one analysis at a
/// time; engine-driven grids pass false (chains already parallelize).
analysis::AnalysisOptions analysis_options(const support::Options& options,
                                           bool solver_threads);

/// One warm-start chain of a p-sweep grid: a (γ, d, f) series.
struct SweepSeries {
  double gamma = 0.5;
  int d = 1, f = 1;
};

/// Expands series × ps into engine jobs, series-major: the job of
/// series s at ps[i] lands at index s * ps.size() + i of the batch (and
/// of the outcomes engine.run returns for it).
std::vector<engine::AnalysisJob> sweep_grid_jobs(
    const std::vector<SweepSeries>& series, const std::vector<double>& ps,
    const analysis::AnalysisOptions& options);

/// Resolves the shared --threads option (0 = all hardware threads) into a
/// concrete worker count.
int thread_count(const support::Options& options);

/// Prints a standard header naming the experiment and its scale.
void print_header(const std::string& title, bool full);

}  // namespace bench
