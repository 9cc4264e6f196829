// Markov-chain analyses of an MDP under a fixed positional strategy.
//
// Used for (a) the exact ERRev of a computed strategy via the renewal
// ratio g_A / (g_A + g_H), from the stationary distribution of the
// strategy's chain (Gauss–Seidel, see stationary_distribution), and (b)
// structural checks (reachability) exercised by the tests.
#pragma once

#include <cstdint>
#include <vector>

#include "mdp/mdp.hpp"

namespace mdp {

/// A positional strategy: one global action id per state; the action must
/// belong to the state it is assigned to.
using Policy = std::vector<ActionId>;

/// Throws support::InvalidArgument unless `policy` assigns each state one
/// of its own actions.
void validate_policy(const Mdp& mdp, const Policy& policy);

/// States reachable from `from` under *some* action (BFS over all actions).
std::vector<bool> reachable_states(const Mdp& mdp, StateId from);

/// States reachable from `from` under the fixed `policy`.
std::vector<bool> reachable_states(const Mdp& mdp, const Policy& policy,
                                   StateId from);

struct StationaryOptions {
  /// Relative L1 change of μ per sweep, ‖x − μ‖₁ / Σx, at which the
  /// solve stops. Its rounding floor is ~1e-16 at any class size; at
  /// 1e-14 ERRev ratios land within ~1e-14 of a dense long-double solve.
  double tol = 1e-14;
  int max_iterations = 5'000'000;
};

struct StationaryResult {
  std::vector<double> distribution;  ///< μ with μP = μ, Σμ = 1.
  StateId closed_states = 0;  ///< Size of the closed class μ lives on.
  int iterations = 0;         ///< Gauss–Seidel sweeps.
  double residual = 0.0;      ///< ‖μP − μ‖₁ of the returned μ.
  bool converged = false;
};

/// Stationary distribution of the chain induced by `policy`.
///
/// Precondition: the chain is unichain from the initial state — the
/// states it reaches hold exactly one closed class (every selfish-mining
/// strategy meets it: the all-honest reset state is reachable from
/// everywhere, paper App. C). Otherwise throws support::InvalidArgument.
///
/// Method: Gauss–Seidel on the balance equations μ(I − P) = 0, the
/// steady-state default of PRISM and Storm. The chain's in-edges,
/// restricted to the closed class, are gathered once per call; each sweep
/// sets μ(t) = Σ_{s≠t} μ(s)·P(s,t) / (1 − P(t,t)) in ascending state
/// order, reading the values the sweep already updated, with compensated
/// sums, then renormalizes. Sweeps start from the uniform distribution on
/// the class; `residual` is computed once, after the last sweep. Transient
/// and unreachable states get exactly 0; a closed class of one state gets
/// μ = 1 without any sweep.
StationaryResult stationary_distribution(const Mdp& mdp, const Policy& policy,
                                         const StationaryOptions& options = {});

/// Long-run average of a per-action reward under `policy`:
/// Σ_s μ(s) · reward[policy(s)].
double policy_gain(const Mdp& mdp, const Policy& policy,
                   const std::vector<double>& action_reward,
                   const std::vector<double>& stationary);

}  // namespace mdp
