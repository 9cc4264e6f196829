// Independent certificate checker for mean-payoff solves and strategies.
//
// A certified answer rests on two numerical claims: a solver's gain bound
// at some β (Algorithm 1's "gain_hi < 0 certifies β* < β") and a
// strategy's exact ERRev from its stationary distribution. This checker
// re-verifies both from the solver's *outputs* alone. It shares no code
// with the production solver (mdp::BellmanKernel, mdp/solve.hpp): it
// reads only the AoS Mdp — transitions(a) and the expected counters — and
// recomputes every sum in long double.
//
//  * Gain bracket. One synchronous Bellman sweep of the untransformed
//    reward r_β(a) = adv(a) − β·(adv(a) + hon(a)) against a value vector
//    v. By Odoni's bounds, min_s (Tv − v)(s) ≤ MP*(β) ≤ max_s (Tv − v)(s)
//    holds for *any* v, so a solver's claimed interval can be checked
//    without trusting how v was produced. The same sweep restricted to a
//    strategy σ brackets σ's own gain (σ's chain unichain).
//  * Stationary check. Given σ and a claimed stationary distribution μ,
//    it recomputes ‖μP_σ − μ‖₁, |Σμ − 1| and the long-run counter rates
//    Σμ·adv and Σμ·hon, whose ratio is σ's exact ERRev. It never reads
//    the solver's own StationaryResult::residual.
#pragma once

#include <vector>

#include "mdp/markov_chain.hpp"
#include "mdp/mdp.hpp"

namespace mdp {

struct GainBracket {
  long double lo = 0.0L;  ///< min_s (Tv − v)(s) ≤ MP*(β).
  long double hi = 0.0L;  ///< max_s (Tv − v)(s) ≥ MP*(β).
  /// min/max_s (T_σv − v)(s): brackets the given strategy's own gain.
  long double policy_lo = 0.0L;
  long double policy_hi = 0.0L;
};

/// One synchronous Bellman sweep of r_β against `values` (any vector of
/// num_states entries). Throws support::InvalidArgument on a size mismatch
/// or a strategy entry that is not one of its state's actions.
GainBracket check_gain_bracket(const Mdp& mdp, double beta,
                               const std::vector<double>& values,
                               const Policy& policy);

struct StationaryCheck {
  long double residual = 0.0L;    ///< ‖μP_σ − μ‖₁.
  long double mass_error = 0.0L;  ///< |Σμ − 1|.
  long double adversary = 0.0L;   ///< Σ_s μ(s)·E[adversary | σ(s)].
  long double honest = 0.0L;      ///< Σ_s μ(s)·E[honest | σ(s)].

  /// σ's ERRev: adversary / (adversary + honest).
  long double ratio() const { return adversary / (adversary + honest); }
  /// σ's gain under r_β: adversary − β·(adversary + honest).
  long double gain(double beta) const {
    return adversary - beta * (adversary + honest);
  }
};

/// Recomputes the stationarity of `mu` under `policy` and the counter
/// rates it implies. Same argument checks as check_gain_bracket.
StationaryCheck check_stationary(const Mdp& mdp, const Policy& policy,
                                 const std::vector<double>& mu);

}  // namespace mdp
