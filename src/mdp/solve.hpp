// Unified facade over the mean-payoff solvers.
//
// Algorithm 1 and the sweep drivers address solvers through this facade so
// that the solver choice is a runtime parameter (mirroring the paper's use
// of an off-the-shelf model checker as a black box). The method and the
// mean-payoff tolerances decide the numbers; `threads` decides only speed
// — results are bit-identical at any thread count.
#pragma once

#include <string>

#include "mdp/bellman_kernel.hpp"
#include "mdp/mdp.hpp"

namespace mdp {

enum class SolverMethod {
  kValueIteration,        ///< Relative VI with aperiodicity transform.
  kGaussSeidel,           ///< In-place VI with synchronous certification.
  kDensePolicyIteration,  ///< Howard PI with exact dense evaluation (small).
};

/// Parses "vi" | "gs" | "dense"; throws otherwise.
SolverMethod parse_solver_method(const std::string& name);
std::string to_string(SolverMethod method);

struct SolveOptions {
  SolverMethod method = SolverMethod::kValueIteration;
  MeanPayoffOptions mean_payoff;  ///< Tolerances for vi / gs.
  /// Worker threads for the kernel's synchronous Bellman sweeps (0 = all
  /// hardware threads). Results are bit-identical at any thread count
  /// (test_mdp_kernel), so this is pure speed — the engine's job keys
  /// deliberately exclude it.
  int threads = 1;
};

/// Maximizes the mean payoff of r_β on a prebuilt kernel. vi/gs run on
/// the kernel, fanning sweeps over `options.threads` workers; dense has
/// no kernel implementation and solves the AoS model with a materialized
/// beta_rewards vector (it returns no value vector). `warm_start` (value
/// vector from a previous related solve) seeds vi/gs and is ignored by
/// dense.
MeanPayoffResult solve_mean_payoff(const BellmanKernel& kernel, double beta,
                                   const SolveOptions& options = {},
                                   const std::vector<double>* warm_start = nullptr);

}  // namespace mdp
