// Exact expected relative revenue of a fixed strategy.
//
// Under any positional strategy the model is a unichain (the all-honest
// reset state is reachable from everywhere — paper Appendix C), so by the
// strong law of large numbers for Markov chains the ratio R_A/(R_A+R_H)
// converges almost surely to the ratio of the stationary finalization
// rates. This gives the "exact value of the expected relative revenue
// guaranteed by this strategy" that the paper reports.
//
// The stationary distribution comes from Gauss–Seidel sweeps over the
// strategy chain's in-edges, restricted to its one closed class
// (mdp::stationary_distribution); a strategy whose chain reaches two
// closed classes is rejected with support::InvalidArgument. The ratio
// lands within ~1e-14 of a dense long-double solve. exact_errev runs once
// per Newton step of Algorithm 1 and emits an `analysis.exact_errev` span
// with the solve's `sweeps`, `states` (closed-class size) and `residual`
// (‖μP − μ‖₁).
#pragma once

#include "mdp/markov_chain.hpp"
#include "mdp/policy_evaluation.hpp"
#include "selfish/build.hpp"

namespace analysis {

/// Long-run finalization rates of `policy` (blocks per MDP step).
mdp::CounterRates counter_rates(const selfish::SelfishModel& model,
                                const mdp::Policy& policy);

/// ERRev(policy) = g_A / (g_A + g_H).
double exact_errev(const selfish::SelfishModel& model,
                   const mdp::Policy& policy);

}  // namespace analysis
