// Unified facade over the mean-payoff solvers.
//
// Algorithm 1 and the sweep drivers address solvers through this facade so
// that the solver choice is a runtime parameter (mirroring the paper's use
// of an off-the-shelf model checker as a black box). The method and the
// mean-payoff tolerances decide the numbers; `threads` and `use_kernel`
// decide only speed — every combination of those two is bit-identical.
#pragma once

#include <string>

#include "mdp/bellman_kernel.hpp"
#include "mdp/mdp.hpp"
#include "mdp/policy_iteration.hpp"
#include "mdp/value_iteration.hpp"

namespace mdp {

enum class SolverMethod {
  kValueIteration,        ///< Relative VI with aperiodicity transform.
  kGaussSeidel,           ///< In-place VI with synchronous certification.
  kPolicyIteration,       ///< Howard PI with iterative evaluation.
  kDensePolicyIteration,  ///< Howard PI with exact dense evaluation (small).
};

/// Parses "vi" | "gs" | "pi" | "dense"; throws otherwise.
SolverMethod parse_solver_method(const std::string& name);
std::string to_string(SolverMethod method);

struct SolveOptions {
  SolverMethod method = SolverMethod::kValueIteration;
  MeanPayoffOptions mean_payoff;  ///< Tolerances for VI / PI evaluation.
  /// Worker threads for the kernel's synchronous Bellman sweeps (0 = all
  /// hardware threads). Results are bit-identical at any thread count
  /// (test_mdp_kernel), so this is pure speed — the engine's job keys
  /// deliberately exclude it.
  int threads = 1;
  /// Route vi/gs solves through the SoA mdp::BellmanKernel (the fast
  /// path). Off = the legacy AoS reference implementation; both produce
  /// bit-identical results, so this knob too is excluded from job keys.
  bool use_kernel = true;
};

/// Maximizes the mean payoff of `mdp` for the per-action reward vector.
/// `warm_start` (value vector from a previous related solve) is honored by
/// the value-iteration method and ignored by the others. This entry walks
/// the legacy AoS arrays and ignores `threads`/`use_kernel`; it is the
/// reference path (build a BellmanKernel and use the overload below for
/// the optimized one).
MeanPayoffResult solve_mean_payoff(const Mdp& mdp,
                                   const std::vector<double>& action_reward,
                                   const SolveOptions& options = {},
                                   const std::vector<double>* warm_start = nullptr);

/// Kernel path: solves for the fused reward r_β on a prebuilt SoA view,
/// fanning sweeps over `options.threads` workers. vi/gs run on the
/// kernel; pi/dense have no SoA implementation and fall back to the AoS
/// path with a materialized beta_rewards vector. Bit-identical to the
/// reference overload at any thread count.
MeanPayoffResult solve_mean_payoff(const BellmanKernel& kernel, double beta,
                                   const SolveOptions& options = {},
                                   const std::vector<double>* warm_start = nullptr);

}  // namespace mdp
