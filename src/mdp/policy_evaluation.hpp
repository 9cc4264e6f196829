// Fixed-policy evaluation: evaluate_policy_counters gives the long-run
// rates of the two finalization counters (adversary, honest) via one
// stationary-distribution solve (Gauss–Seidel on the strategy's chain,
// which must be unichain; see stationary_distribution); the exact ERRev
// of a strategy is then g_A / (g_A + g_H).
#pragma once

#include <vector>

#include "mdp/markov_chain.hpp"
#include "mdp/mdp.hpp"

namespace mdp {

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
