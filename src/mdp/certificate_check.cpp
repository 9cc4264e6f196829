#include "mdp/certificate_check.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace mdp {

namespace {

using Real = long double;

/// r_β(a) + Σ_t P(t | a)·v(t), summed in long double.
Real q_value(const Mdp& mdp, ActionId a, Real beta,
             const std::vector<double>& v) {
  const Real adv = mdp.expected_adversary(a);
  Real q = adv - beta * (adv + static_cast<Real>(mdp.expected_honest(a)));
  for (const Transition& t : mdp.transitions(a)) {
    q += static_cast<Real>(t.prob) * v[t.target];
  }
  return q;
}

void check_sizes(const Mdp& mdp, const Policy& policy,
                 const std::vector<double>& per_state, const char* what) {
  validate_policy(mdp, policy);
  SM_REQUIRE(per_state.size() == mdp.num_states(), what, " has ",
             per_state.size(), " entries but the model has ",
             mdp.num_states(), " states");
}

}  // namespace

GainBracket check_gain_bracket(const Mdp& mdp, double beta,
                               const std::vector<double>& values,
                               const Policy& policy) {
  check_sizes(mdp, policy, values, "value vector");
  constexpr Real kInf = std::numeric_limits<Real>::infinity();
  GainBracket b{kInf, -kInf, kInf, -kInf};
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    Real best = -kInf;
    for (ActionId a = mdp.action_begin(s); a < mdp.action_end(s); ++a) {
      best = std::max(best, q_value(mdp, a, beta, values));
    }
    const Real v = values[s];
    b.lo = std::min(b.lo, best - v);
    b.hi = std::max(b.hi, best - v);
    const Real own = q_value(mdp, policy[s], beta, values) - v;
    b.policy_lo = std::min(b.policy_lo, own);
    b.policy_hi = std::max(b.policy_hi, own);
  }
  return b;
}

StationaryCheck check_stationary(const Mdp& mdp, const Policy& policy,
                                 const std::vector<double>& mu) {
  check_sizes(mdp, policy, mu, "distribution");
  StationaryCheck c;
  // flow = μP_σ, accumulated edge by edge.
  std::vector<Real> flow(mdp.num_states(), 0.0L);
  Real mass = 0.0L;
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    const Real m = mu[s];
    const ActionId a = policy[s];
    mass += m;
    c.adversary += m * mdp.expected_adversary(a);
    c.honest += m * mdp.expected_honest(a);
    for (const Transition& t : mdp.transitions(a)) {
      flow[t.target] += m * static_cast<Real>(t.prob);
    }
  }
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    c.residual += std::fabs(flow[s] - static_cast<Real>(mu[s]));
  }
  c.mass_error = std::fabs(mass - 1.0L);
  return c;
}

}  // namespace mdp
