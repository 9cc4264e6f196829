#include "mdp/policy_evaluation.hpp"

#include <limits>

#include "support/check.hpp"

namespace mdp {

PolicyEvaluation evaluate_policy_gain(const Mdp& mdp, const Policy& policy,
                                      const std::vector<double>& action_reward,
                                      const MeanPayoffOptions& options,
                                      const std::vector<double>* warm_start) {
  validate_policy(mdp, policy);
  SM_REQUIRE(action_reward.size() == mdp.num_actions(),
             "reward vector size mismatch");
  SM_REQUIRE(options.tau > 0.0 && options.tau < 1.0, "tau out of range");
  const StateId n = mdp.num_states();

  PolicyEvaluation result;
  std::vector<double>& v = result.bias;
  if (warm_start != nullptr && warm_start->size() == n) {
    v = *warm_start;
  } else {
    v.assign(n, 0.0);
  }
  std::vector<double> v_next(n, 0.0);

  const double tau = options.tau;
  const double one_minus_tau = 1.0 - tau;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    double delta_lo = std::numeric_limits<double>::infinity();
    double delta_hi = -std::numeric_limits<double>::infinity();
    for (StateId s = 0; s < n; ++s) {
      const ActionId a = policy[s];
      double q = action_reward[a];
      for (const Transition& t : mdp.transitions(a)) {
        q += t.prob * v[t.target];
      }
      const double updated = one_minus_tau * q + tau * v[s];
      const double delta = updated - v[s];
      if (delta < delta_lo) delta_lo = delta;
      if (delta > delta_hi) delta_hi = delta;
      v_next[s] = updated;
    }
    result.iterations = iter;
    result.gain_lo = delta_lo / one_minus_tau;
    result.gain_hi = delta_hi / one_minus_tau;

    const double shift = v_next[0];
    for (StateId s = 0; s < n; ++s) v[s] = v_next[s] - shift;

    if (result.gain_hi - result.gain_lo < options.tol) {
      result.converged = true;
      break;
    }
  }
  result.gain = 0.5 * (result.gain_lo + result.gain_hi);
  return result;
}

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
