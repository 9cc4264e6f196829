// Exact dense gain/bias solver and the shared linear-system routine.
#include <gtest/gtest.h>

#include "mdp/bellman_kernel.hpp"
#include "mdp/dense_solver.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

TEST(LinearSystem, SolvesSmallSystem) {
  // x + y = 3; x − y = 1 → x = 2, y = 1.
  const auto x = mdp::solve_linear_system({{1, 1}, {1, -1}}, {3, 1});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(LinearSystem, PivotsOnZeroDiagonal) {
  // First pivot is 0; partial pivoting must swap rows.
  const auto x = mdp::solve_linear_system({{0, 2}, {3, 1}}, {4, 5});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LinearSystem, ThrowsOnSingular) {
  EXPECT_THROW(mdp::solve_linear_system({{1, 1}, {2, 2}}, {1, 2}),
               support::Error);
}

TEST(LinearSystem, RejectsShapeMismatch) {
  EXPECT_THROW(mdp::solve_linear_system({{1, 1}}, {1, 2}),
               support::InvalidArgument);
  EXPECT_THROW(mdp::solve_linear_system({{1, 1}, {1, 0}}, {1}),
               support::InvalidArgument);
}

TEST(DenseSolver, ExactGainOnCycle) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const mdp::Policy policy{0, 1};
  const auto eval = mdp::dense_evaluate_policy(m, policy, m.beta_rewards(0.0));
  EXPECT_NEAR(eval.gain, 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(eval.bias[0], 0.0);  // pinned reference state
}

TEST(DenseSolver, BiasSatisfiesPoissonEquation) {
  support::Rng rng(31);
  const mdp::Mdp m = test_helpers::random_unichain(rng, 20, 2, 3);
  mdp::Policy policy(m.num_states());
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    policy[s] = m.action_begin(s);
  }
  const auto rewards = m.beta_rewards(0.25);
  const auto eval = mdp::dense_evaluate_policy(m, policy, rewards);
  // h(s) + g = r(s) + Σ P h(t) must hold exactly for every state.
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    double rhs = rewards[policy[s]];
    for (const auto& t : m.transitions(policy[s])) {
      rhs += t.prob * eval.bias[t.target];
    }
    EXPECT_NEAR(eval.bias[s] + eval.gain, rhs, 1e-9) << "state " << s;
  }
}

TEST(DensePolicyIteration, MatchesValueIteration) {
  support::Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const mdp::Mdp m = test_helpers::random_unichain(rng, 25, 3, 3);
    const auto dense = mdp::dense_policy_iteration(m, m.beta_rewards(0.4));
    const auto vi = mdp::BellmanKernel(m).value_iteration(0.4);
    ASSERT_TRUE(dense.converged);
    ASSERT_TRUE(vi.converged);
    EXPECT_NEAR(dense.gain, vi.gain, 1e-5) << "trial " << trial;
  }
}

TEST(DensePolicyIteration, OptimalOnChoiceModel) {
  const mdp::Mdp m = test_helpers::two_action_choice();
  const auto result = mdp::dense_policy_iteration(m, m.beta_rewards(0.4));
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.gain, 0.6, 1e-12);
  EXPECT_EQ(m.action_label(result.policy[0]), 1u);
}

}  // namespace
