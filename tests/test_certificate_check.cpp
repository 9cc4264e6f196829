// The independent certificate checker (mdp/certificate_check.hpp): exact
// answers on hand-solvable models, and — so that it can serve as the
// tests' oracle — proof that it rejects a broken value vector and a
// distribution that is not stationary for the strategy it is checked
// against.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "mdp/bellman_kernel.hpp"
#include "mdp/certificate_check.hpp"
#include "mdp/dense_solver.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

constexpr long double kSlack = 1e-12L;

selfish::SelfishModel build(double p = 0.3) {
  return selfish::build_model(selfish::AttackParams{
      .p = p, .gamma = 0.5, .d = 2, .f = 1, .l = 4});
}

bool same_distribution(const mdp::Mdp& m, mdp::ActionId a, mdp::ActionId b) {
  const auto ta = m.transitions(a);
  const auto tb = m.transitions(b);
  if (ta.size() != tb.size()) return false;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (ta[i].target != tb[i].target || ta[i].prob != tb[i].prob) {
      return false;
    }
  }
  return true;
}

TEST(CertificateCheck, ZeroValuesBracketTheCycleGain) {
  // With v = 0 the sweep returns the rewards themselves: r = (1, 0) at
  // β = 0 brackets the cycle's gain 1/2 by [0, 1].
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const mdp::Policy policy{0, 1};
  const auto b = mdp::check_gain_bracket(m, 0.0, {0.0, 0.0}, policy);
  EXPECT_EQ(b.lo, 0.0L);
  EXPECT_EQ(b.hi, 1.0L);
  EXPECT_EQ(b.policy_lo, 0.0L);
  EXPECT_EQ(b.policy_hi, 1.0L);
}

TEST(CertificateCheck, BiasValuesCloseTheBracket) {
  // The exact bias of the optimal strategy is a Bellman fixpoint up to
  // the gain: the bracket collapses onto the dense solver's gain.
  const mdp::Mdp m = test_helpers::two_action_choice();
  const double beta = 0.4;
  const auto rewards = m.beta_rewards(beta);
  const auto opt = mdp::dense_policy_iteration(m, rewards);
  const auto eval = mdp::dense_evaluate_policy(m, opt.policy, rewards);
  const auto b = mdp::check_gain_bracket(m, beta, eval.bias, opt.policy);
  EXPECT_NEAR(static_cast<double>(b.lo), 0.6, 1e-15);
  EXPECT_NEAR(static_cast<double>(b.hi), 0.6, 1e-15);
  // "stay" (gain 1 − 2β) is below the optimum at every state's backup.
  const auto stay = mdp::check_gain_bracket(m, beta, eval.bias, {0, 2});
  EXPECT_LT(stay.policy_lo, b.lo);
  EXPECT_EQ(stay.hi, b.hi);
}

TEST(CertificateCheck, StationaryCheckOfTheCycle) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const mdp::Policy policy{0, 1};
  const auto c = mdp::check_stationary(m, policy, {0.5, 0.5});
  EXPECT_EQ(c.residual, 0.0L);
  EXPECT_EQ(c.mass_error, 0.0L);
  EXPECT_EQ(c.ratio(), 0.5L);
  EXPECT_EQ(c.gain(0.5), 0.0L);  // 1/2 − 1/2·(1/2 + 1/2)
  // A distribution that is not stationary is measured, not trusted.
  const auto off = mdp::check_stationary(m, policy, {0.75, 0.25});
  EXPECT_EQ(off.residual, 1.0L);
  EXPECT_EQ(off.mass_error, 0.0L);
}

TEST(CertificateCheck, PerturbedValuesBreakTheCertificate) {
  // A solve at β above ERRev* certifies gain_hi < 0; the checker agrees
  // on its values. Lowering one state's value by 1 raises that state's
  // Tv − v by at least 1 − P(s, s), so the certificate must fail.
  const auto model = build();
  const mdp::Mdp& m = model.mdp;
  const double beta = 0.45;
  const auto solve = mdp::BellmanKernel(m).value_iteration(beta);
  ASSERT_TRUE(solve.converged);
  ASSERT_LT(solve.gain_hi, 0.0);
  const auto good = mdp::check_gain_bracket(m, beta, solve.values,
                                            solve.policy);
  EXPECT_LT(good.hi, 0.0L);
  EXPECT_GE(good.lo, solve.gain_lo - kSlack);
  EXPECT_LE(good.hi, solve.gain_hi + kSlack);

  std::vector<double> broken = solve.values;
  broken[m.initial_state()] -= 1.0;
  const auto bad = mdp::check_gain_bracket(m, beta, broken, solve.policy);
  EXPECT_TRUE(bad.hi >= 0.0L || bad.lo < solve.gain_lo - kSlack ||
              bad.hi > solve.gain_hi + kSlack)
      << "lo=" << bad.lo << " hi=" << bad.hi;
}

TEST(CertificateCheck, FlippedStrategyFailsStationarity) {
  // μ is stationary for σ; switching σ at a state μ visits to an action
  // with another successor distribution moves μ(s)·‖P'(s) − P(s)‖₁ of
  // flow, which the check must see.
  const auto model = build();
  const mdp::Mdp& m = model.mdp;
  analysis::AnalysisOptions options;
  const auto answer = analysis::analyze(model, options);
  const auto mu = mdp::stationary_distribution(m, answer.policy).distribution;
  const auto good = mdp::check_stationary(m, answer.policy, mu);
  ASSERT_LE(good.residual, kSlack);
  ASSERT_LE(good.mass_error, kSlack);

  // The most-visited state that has a genuinely different action.
  mdp::StateId flip_state = mdp::kInvalidState;
  mdp::ActionId flip_action = mdp::kInvalidAction;
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    if (mu[s] <= 0.0 ||
        (flip_state != mdp::kInvalidState && mu[s] <= mu[flip_state])) {
      continue;
    }
    for (mdp::ActionId a = m.action_begin(s); a < m.action_end(s); ++a) {
      if (!same_distribution(m, a, answer.policy[s])) {
        flip_state = s;
        flip_action = a;
        break;
      }
    }
  }
  ASSERT_NE(flip_state, mdp::kInvalidState) << "no state to flip";
  mdp::Policy flipped = answer.policy;
  flipped[flip_state] = flip_action;
  const auto bad = mdp::check_stationary(m, flipped, mu);
  EXPECT_GT(bad.residual, kSlack) << "state " << flip_state;
}

TEST(CertificateCheck, RejectsMismatchedInputs) {
  const mdp::Mdp m = test_helpers::two_action_choice();
  const mdp::Policy policy{1, 2};
  EXPECT_THROW(mdp::check_gain_bracket(m, 0.4, {0.0}, policy),
               support::InvalidArgument);
  EXPECT_THROW(mdp::check_stationary(m, policy, {1.0, 0.0, 0.0}),
               support::InvalidArgument);
  // Action 2 belongs to state 1, not state 0.
  EXPECT_THROW(mdp::check_gain_bracket(m, 0.4, {0.0, 0.0}, {2, 2}),
               support::InvalidArgument);
}

}  // namespace
