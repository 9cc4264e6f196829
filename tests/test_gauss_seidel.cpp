// Gauss–Seidel value iteration: agreement with the synchronous solver and
// the certified-bounds contract.
#include <gtest/gtest.h>

#include "analysis/algorithm1.hpp"
#include "mdp/bellman_kernel.hpp"
#include "mdp/dense_solver.hpp"
#include "mdp/solve.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

TEST(GaussSeidel, MatchesSynchronousOnHandModels) {
  const mdp::Mdp cycle = test_helpers::two_state_cycle();
  const auto gs = mdp::BellmanKernel(cycle).gauss_seidel(0.0);
  ASSERT_TRUE(gs.converged);
  EXPECT_NEAR(gs.gain, 0.5, 1e-6);

  const mdp::Mdp choice = test_helpers::two_action_choice();
  const auto gs2 =
      mdp::BellmanKernel(choice).gauss_seidel(0.4);
  ASSERT_TRUE(gs2.converged);
  EXPECT_NEAR(gs2.gain, 0.6, 1e-6);
  EXPECT_EQ(choice.action_label(gs2.policy[0]), 1u);
}

TEST(GaussSeidel, CertifiedBoundsContainExactGain) {
  support::Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    const mdp::Mdp m = test_helpers::random_unichain(rng, 35, 3, 4);
    const auto gs = mdp::BellmanKernel(m).gauss_seidel(0.3);
    const auto exact = mdp::dense_policy_iteration(m, m.beta_rewards(0.3));
    ASSERT_TRUE(gs.converged);
    ASSERT_TRUE(exact.converged);
    EXPECT_LE(gs.gain_lo, exact.gain + 1e-7) << "trial " << trial;
    EXPECT_GE(gs.gain_hi, exact.gain - 1e-7) << "trial " << trial;
    EXPECT_LT(gs.gain_hi - gs.gain_lo, 1e-7 + 1e-9);
  }
}

TEST(GaussSeidel, AgreesOnSelfishModels) {
  for (const auto& [d, f] : {std::pair{1, 1}, {2, 1}, {2, 2}}) {
    const auto model = selfish::build_model(
        selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = d, .f = f, .l = 4});
    const mdp::BellmanKernel kernel(model.mdp);
    const auto vi = kernel.value_iteration(0.41);
    const auto gs = kernel.gauss_seidel(0.41);
    ASSERT_TRUE(vi.converged);
    ASSERT_TRUE(gs.converged);
    EXPECT_NEAR(gs.gain, vi.gain, 1e-5) << "d=" << d << " f=" << f;
  }
}

TEST(GaussSeidel, UsuallyFewerSweepsThanSynchronous) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4});
  const mdp::BellmanKernel kernel(model.mdp);
  const auto vi = kernel.value_iteration(0.43);
  const auto gs = kernel.gauss_seidel(0.43);
  ASSERT_TRUE(vi.converged);
  ASSERT_TRUE(gs.converged);
  EXPECT_LT(gs.iterations, vi.iterations);
}

TEST(GaussSeidel, WorksInsideAlgorithm1) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4});
  analysis::AnalysisOptions vi_options, gs_options;
  vi_options.epsilon = 1e-4;
  gs_options.epsilon = 1e-4;
  gs_options.solver.method = mdp::SolverMethod::kGaussSeidel;
  const auto vi = analysis::analyze(model, vi_options);
  const auto gs = analysis::analyze(model, gs_options);
  EXPECT_NEAR(gs.errev_of_policy, vi.errev_of_policy, 1e-6);
  EXPECT_NEAR(gs.errev_lower_bound, vi.errev_lower_bound, 2e-4);
}

TEST(GaussSeidel, ParseAndName) {
  EXPECT_EQ(mdp::parse_solver_method("gs"), mdp::SolverMethod::kGaussSeidel);
  EXPECT_EQ(mdp::parse_solver_method("vi-gs"),
            mdp::SolverMethod::kGaussSeidel);
  EXPECT_EQ(mdp::to_string(mdp::SolverMethod::kGaussSeidel), "gs");
}

TEST(GaussSeidel, RejectsBadArguments) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  mdp::MeanPayoffOptions options;
  options.tau = 1.0;
  EXPECT_THROW(
      mdp::BellmanKernel(m).gauss_seidel(0.0, options),
      support::InvalidArgument);
}

}  // namespace
