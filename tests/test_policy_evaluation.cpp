// Fixed-policy evaluation: long-run counter rates of a strategy, and the
// gains they imply under r_β.
#include <gtest/gtest.h>

#include "support/check.hpp"

#include "mdp/policy_evaluation.hpp"
#include "test_helpers.hpp"

namespace {

TEST(PolicyEvaluation, FixedPolicyGainMatchesClosedForm) {
  const mdp::Mdp m = test_helpers::two_action_choice();
  // Policy "stay": gain = 1 − 2β; policy "go": gain = 1 − β.
  const mdp::Policy stay{0, 2};
  const mdp::Policy go{1, 2};
  const double beta = 0.3;
  const auto gain = [beta](const mdp::CounterRates& r) {
    return r.adversary - beta * (r.adversary + r.honest);
  };
  EXPECT_NEAR(gain(mdp::evaluate_policy_counters(m, stay)), 1.0 - 2 * beta,
              1e-12);
  EXPECT_NEAR(gain(mdp::evaluate_policy_counters(m, go)), 1.0 - beta, 1e-12);
}

TEST(PolicyEvaluation, CounterRatesMatchStructure) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const mdp::Policy policy{0, 1};
  const auto rates = mdp::evaluate_policy_counters(m, policy);
  // One adversary and one honest finalization per 2-step period.
  EXPECT_NEAR(rates.adversary, 0.5, 1e-9);
  EXPECT_NEAR(rates.honest, 0.5, 1e-9);
  EXPECT_NEAR(rates.ratio(), 0.5, 1e-9);
}

TEST(PolicyEvaluation, RejectsForeignPolicy) {
  const mdp::Mdp m = test_helpers::two_action_choice();
  const mdp::Policy bogus{2, 2};  // action 2 belongs to state 1
  EXPECT_THROW(mdp::evaluate_policy_counters(m, bogus),
               support::InvalidArgument);
}

}  // namespace
