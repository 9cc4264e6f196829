#include "mdp/policy_evaluation.hpp"

#include "support/check.hpp"

namespace mdp {

CounterRates evaluate_policy_counters(const Mdp& mdp, const Policy& policy,
                                      const StationaryOptions& options) {
  const StationaryResult st = stationary_distribution(mdp, policy, options);
  SM_ENSURE(st.converged, "stationary distribution did not converge");
  CounterRates rates;
  rates.sweeps = st.iterations;
  rates.closed_states = st.closed_states;
  rates.residual = st.residual;
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    const ActionId a = policy[s];
    rates.adversary += st.distribution[s] * mdp.expected_adversary(a);
    rates.honest += st.distribution[s] * mdp.expected_honest(a);
  }
  return rates;
}

}  // namespace mdp
