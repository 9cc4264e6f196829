// Parameter-sweep drivers producing the paper's experiment series.
//
// A sweep runs Algorithm 1 for a list of adversary resources p (Figure 2's
// x-axis) for one attack configuration, warm-starting each analysis with
// the previous value vector — the state space is identical across p, only
// transition probabilities move, so values carry over almost unchanged.
// Sweeps execute through the experiment engine (engine::Engine), which
// plans the warm-start chain, fans independent chains across threads, and
// serves previously computed points from its content-addressed store.
#pragma once

#include <iosfwd>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "selfish/params.hpp"

namespace engine {
class Engine;
}

namespace analysis {

struct SweepPoint {
  double p = 0.0;
  double errev = 0.0;            ///< Certified ε-tight lower bound (β_lo).
  double errev_of_policy = 0.0;  ///< Exact ERRev of the computed strategy.
  double seconds = 0.0;          ///< Solve wall-clock (cache hits replay
                                 ///< the original computation's time).
  std::size_t num_states = 0;
  int search_iterations = 0;     ///< Search steps (solves) of Algorithm 1.
  long solver_iterations = 0;    ///< Total inner solver iterations.
  bool cached = false;           ///< Served from the engine's store.
};

struct SweepResult {
  selfish::AttackParams base;    ///< γ, d, f, l of the series (p varies).
  std::vector<SweepPoint> points;
};

/// Uniform grid lo, lo+step, …, ≤ hi (inclusive within 1e-12 slack).
std::vector<double> linspace_grid(double lo, double hi, double step);

/// Runs Algorithm 1 for each p in `ps` with the remaining parameters taken
/// from `base` (its p field is ignored) on `engine` — parallel across
/// chains, cached and resumable when the engine has a cache directory.
SweepResult sweep_p(const selfish::AttackParams& base,
                    const std::vector<double>& ps,
                    const AnalysisOptions& options, engine::Engine& engine);

/// Convenience: sweeps on a throwaway single-threaded, store-less engine.
SweepResult sweep_p(const selfish::AttackParams& base,
                    const std::vector<double>& ps,
                    const AnalysisOptions& options = {});

/// The pre-engine reference path: one sequential warm-started loop on the
/// calling thread, no caching. Kept as the equivalence baseline for tests
/// and for bench_sweep's speedup measurement; for an ascending grid it
/// produces bit-identical results to the engine path.
SweepResult sweep_p_sequential(const selfish::AttackParams& base,
                               const std::vector<double>& ps,
                               const AnalysisOptions& options = {});

/// CSV rendering of a sweep (the `selfish-mining sweep` output): one row
/// per grid point with the honest and single-tree baselines alongside.
/// Deliberately contains no wall-clock columns — for a fixed grid and
/// options the bytes are identical across reruns, resumptions, and thread
/// counts (the determinism contract the engine tests pin).
void write_sweep_csv(const SweepResult& sweep, std::ostream& out);

}  // namespace analysis
