// Fixed-policy mean-payoff evaluation.
//
// Two complementary routines:
//  * evaluate_policy_gain — RVI restricted to one policy; returns certified
//    gain bounds and a bias (relative value) vector, used by Howard policy
//    iteration for its improvement step.
//  * evaluate_policy_counters — long-run rates of the two finalization
//    counters (adversary, honest) via one stationary-distribution solve
//    (Gauss–Seidel on the strategy's chain, which must be unichain; see
//    stationary_distribution); the exact ERRev of a strategy is then
//    g_A / (g_A + g_H).
#pragma once

#include <vector>

#include "mdp/markov_chain.hpp"
#include "mdp/mdp.hpp"
#include "mdp/value_iteration.hpp"

namespace mdp {

struct PolicyEvaluation {
  double gain = 0.0;
  double gain_lo = 0.0;
  double gain_hi = 0.0;
  std::vector<double> bias;  ///< Relative values h with h[0] = 0.
  int iterations = 0;
  bool converged = false;
};

/// Mean payoff of `policy` for `action_reward`, by relative value iteration
/// on the induced (lazy-transformed) Markov chain.
PolicyEvaluation evaluate_policy_gain(const Mdp& mdp, const Policy& policy,
                                      const std::vector<double>& action_reward,
                                      const MeanPayoffOptions& options = {},
                                      const std::vector<double>* warm_start = nullptr);

struct CounterRates {
  double adversary = 0.0;  ///< Long-run finalized adversary blocks / step.
  double honest = 0.0;     ///< Long-run finalized honest blocks / step.

  /// The stationary solve behind the rates (see StationaryResult).
  int sweeps = 0;
  StateId closed_states = 0;
  double residual = 0.0;

  /// ERRev of the policy: adversary / (adversary + honest).
  /// Well-defined for the selfish-mining models, where the total
  /// finalization rate is bounded below by (1−p)/(1−p+p·d·f) > 0.
  double ratio() const { return adversary / (adversary + honest); }
};

/// Long-run rates of both finalization counters under `policy`.
CounterRates evaluate_policy_counters(const Mdp& mdp, const Policy& policy,
                                      const StationaryOptions& options = {});

}  // namespace mdp
