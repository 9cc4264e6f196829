// Relative value iteration (mdp::BellmanKernel) on hand-solvable
// mean-payoff MDPs.
#include <gtest/gtest.h>

#include "mdp/builder.hpp"
#include "mdp/bellman_kernel.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

TEST(ValueIteration, DeterministicCycleGain) {
  // Reward alternates 1 (adv) and 0·…: with β = 0 reward is (1, 0) per
  // period of 2 → gain 1/2. The chain is 2-periodic — exactly the case the
  // aperiodicity transform must handle.
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const auto result = mdp::BellmanKernel(m).value_iteration(0.0);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.gain, 0.5, 1e-6);
  EXPECT_LE(result.gain_lo, result.gain);
  EXPECT_GE(result.gain_hi, result.gain);
  EXPECT_LT(result.gain_hi - result.gain_lo, 1e-6);
}

TEST(ValueIteration, BetaShiftsCycleGain) {
  // Per period: adv 1, hon 1 → gain(β) = (1 − 2β)/2.
  const mdp::Mdp m = test_helpers::two_state_cycle();
  for (const double beta : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto result = mdp::BellmanKernel(m).value_iteration(beta);
    ASSERT_TRUE(result.converged);
    EXPECT_NEAR(result.gain, (1.0 - 2.0 * beta) / 2.0, 1e-6) << "beta=" << beta;
  }
}

TEST(ValueIteration, PicksBetterAction) {
  // "go" yields mean payoff 1 − β vs "stay" 1 − 2β; for β = 0.4 go wins.
  const mdp::Mdp m = test_helpers::two_action_choice();
  const auto result = mdp::BellmanKernel(m).value_iteration(0.4);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.gain, 1.0 - 0.4, 1e-6);
  EXPECT_EQ(m.action_label(result.policy[0]), 1u);  // "go"
}

TEST(ValueIteration, ProbabilisticGain) {
  // One state, one action: with prob .3 counts (1,0), with prob .7 (0,1).
  // Gain at β=0 is .3.
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(0, 0.3, {1, 0});
  b.add_transition(0, 0.7, {0, 1});
  const mdp::Mdp m = b.build(0);
  const auto result = mdp::BellmanKernel(m).value_iteration(0.0);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.gain, 0.3, 1e-6);
}

TEST(ValueIteration, GainBoundsBracketTrueGain) {
  support::Rng rng(99);
  const mdp::Mdp m = test_helpers::random_unichain(rng, 30, 3, 4);
  mdp::MeanPayoffOptions opts;
  opts.tol = 1e-9;
  const auto tight = mdp::BellmanKernel(m).value_iteration(0.3, opts);
  ASSERT_TRUE(tight.converged);
  opts.tol = 1e-4;
  const auto loose = mdp::BellmanKernel(m).value_iteration(0.3, opts);
  ASSERT_TRUE(loose.converged);
  EXPECT_LE(loose.gain_lo, tight.gain + 1e-9);
  EXPECT_GE(loose.gain_hi, tight.gain - 1e-9);
}

TEST(ValueIteration, WarmStartConvergesFasterOrEqual) {
  support::Rng rng(7);
  const mdp::Mdp m = test_helpers::random_unichain(rng, 50, 3, 4);
  const auto cold = mdp::BellmanKernel(m).value_iteration(0.31);
  ASSERT_TRUE(cold.converged);
  const auto warm =
      mdp::BellmanKernel(m).value_iteration(0.32, {}, &cold.values);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(ValueIteration, MaxIterationsReportsNonConverged) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  mdp::MeanPayoffOptions opts;
  opts.max_iterations = 1;
  opts.tol = 1e-15;
  const auto result = mdp::BellmanKernel(m).value_iteration(0.0, opts);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 1);
}

TEST(ValueIteration, RejectsBadArguments) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  mdp::MeanPayoffOptions opts;
  opts.tau = 0.0;
  EXPECT_THROW(mdp::BellmanKernel(m).value_iteration(0.0, opts),
               support::InvalidArgument);
  opts.tau = 0.5;
  opts.tol = 0.0;
  EXPECT_THROW(mdp::BellmanKernel(m).value_iteration(0.0, opts),
               support::InvalidArgument);
}

TEST(ValueIteration, TauInsensitive) {
  support::Rng rng(21);
  const mdp::Mdp m = test_helpers::random_unichain(rng, 25, 2, 3);
  double reference = 0.0;
  bool first = true;
  for (const double tau : {0.1, 0.3, 0.5, 0.8}) {
    mdp::MeanPayoffOptions opts;
    opts.tau = tau;
    const auto result = mdp::BellmanKernel(m).value_iteration(0.5, opts);
    ASSERT_TRUE(result.converged) << "tau=" << tau;
    if (first) {
      reference = result.gain;
      first = false;
    } else {
      EXPECT_NEAR(result.gain, reference, 1e-5) << "tau=" << tau;
    }
  }
}

}  // namespace
