#include "mdp/solve.hpp"

#include "mdp/dense_solver.hpp"
#include "support/check.hpp"

namespace mdp {

SolverMethod parse_solver_method(const std::string& name) {
  if (name == "vi") return SolverMethod::kValueIteration;
  if (name == "gs" || name == "vi-gs") return SolverMethod::kGaussSeidel;
  if (name == "dense") return SolverMethod::kDensePolicyIteration;
  throw support::InvalidArgument("unknown solver method: " + name +
                                 " (expected vi | gs | dense)");
}

std::string to_string(SolverMethod method) {
  switch (method) {
    case SolverMethod::kValueIteration: return "vi";
    case SolverMethod::kGaussSeidel: return "gs";
    case SolverMethod::kDensePolicyIteration: return "dense";
  }
  return "?";
}

MeanPayoffResult solve_mean_payoff(const BellmanKernel& kernel, double beta,
                                   const SolveOptions& options,
                                   const std::vector<double>* warm_start) {
  switch (options.method) {
    case SolverMethod::kValueIteration:
      return kernel.value_iteration(beta, options.mean_payoff, warm_start,
                                    options.threads);
    case SolverMethod::kGaussSeidel:
      return kernel.gauss_seidel(beta, options.mean_payoff, warm_start,
                                 options.threads);
    case SolverMethod::kDensePolicyIteration: {
      std::vector<double> rewards;
      kernel.mdp().beta_rewards_into(beta, rewards);
      const DensePolicyIterationResult dp = dense_policy_iteration(
          kernel.mdp(), rewards,
          /*improve_tol=*/options.mean_payoff.tol * 1e-2);
      MeanPayoffResult result;
      result.gain = dp.gain;
      result.gain_lo = dp.gain;
      result.gain_hi = dp.gain;
      result.policy = dp.policy;
      result.iterations = dp.rounds;
      result.converged = dp.converged;
      return result;
    }
  }
  throw support::InternalError("unhandled solver method");
}

}  // namespace mdp
