// BellmanKernel contract: every converged solve carries a certificate the
// independent checker (mdp/certificate_check.hpp) confirms from the
// returned values and strategy alone, small models agree with the exact
// dense solver, and results are bit-identical at any thread count (1 vs 8
// byte-compared). Deliberately non-stochastic: it gates in the fast
// `ctest -LE stochastic` stage of every CI leg.
#include <gtest/gtest.h>

#include <cstring>

#include "analysis/algorithm1.hpp"
#include "certify.hpp"
#include "mdp/dense_solver.hpp"
#include "mdp/solve.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

/// Byte-level equality of two double vectors (EXPECT_EQ would compare by
/// value and let -0.0 == 0.0 slip through).
bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_identical(const mdp::MeanPayoffResult& a,
                      const mdp::MeanPayoffResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.converged, b.converged) << label;
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.gain, b.gain) << label;
  EXPECT_EQ(a.gain_lo, b.gain_lo) << label;
  EXPECT_EQ(a.gain_hi, b.gain_hi) << label;
  EXPECT_EQ(a.policy, b.policy) << label;
  EXPECT_TRUE(same_bytes(a.values, b.values)) << label;
}

/// Dense policy iteration is O(n³): the exact-gain cross-check runs on
/// the models small enough for it.
constexpr mdp::StateId kDenseMaxStates = 400;

/// Certifies vi and gs at β on `m` with the checker, and on small models
/// checks that the checker's bracket contains the exact dense gain.
void expect_kernel_certified(const mdp::Mdp& m, double beta,
                             const std::string& label) {
  const mdp::BellmanKernel kernel(m);
  const auto vi = kernel.value_iteration(beta);
  const auto gs = kernel.gauss_seidel(beta);
  certify::expect_certified_solve(m, beta, vi, "vi " + label);
  certify::expect_certified_solve(m, beta, gs, "gs " + label);
  if (m.num_states() > kDenseMaxStates) return;
  const double exact =
      mdp::dense_policy_iteration(m, m.beta_rewards(beta)).gain;
  for (const auto* r : {&vi, &gs}) {
    const auto b = mdp::check_gain_bracket(m, beta, r->values, r->policy);
    EXPECT_LE(b.lo, exact + certify::kSlack) << "dense " << label;
    EXPECT_GE(b.hi, exact - certify::kSlack) << "dense " << label;
  }
}

selfish::SelfishModel build(int d, int f, int l = 4) {
  return selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = d, .f = f, .l = l});
}

TEST(BellmanKernel, FusedRewardMatchesBetaReward) {
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  for (const double beta : {0.0, 0.25, 0.41, 1.0}) {
    for (mdp::ActionId a = 0; a < model.mdp.num_actions(); a += 7) {
      ASSERT_EQ(kernel.reward(a, beta), model.mdp.beta_reward(a, beta))
          << "a=" << a << " beta=" << beta;
    }
  }
}

TEST(BellmanKernel, CheckerCertifiesSelfishSolves) {
  for (const auto& [d, f] : {std::pair{1, 1}, {2, 1}, {2, 2}}) {
    const auto model = build(d, f);
    for (const double beta : {0.2, 0.41, 0.8}) {
      expect_kernel_certified(model.mdp, beta,
                              "d=" + std::to_string(d) +
                                  " f=" + std::to_string(f) +
                                  " beta=" + std::to_string(beta));
    }
  }
}

TEST(BellmanKernel, CheckerCertifiesHandAndRandomSolves) {
  support::Rng rng(4242);
  std::vector<mdp::Mdp> models;
  models.push_back(test_helpers::two_state_cycle());
  models.push_back(test_helpers::two_action_choice());
  models.push_back(test_helpers::random_unichain(rng, 60, 3, 4));
  for (std::size_t i = 0; i < models.size(); ++i) {
    for (const double beta : {0.0, 0.4, 1.0}) {
      expect_kernel_certified(models[i], beta,
                              "model=" + std::to_string(i) +
                                  " beta=" + std::to_string(beta));
    }
  }
}

TEST(BellmanKernel, FacadeCertifiedForAllSolverMethods) {
  // vi/gs through the facade are the kernel's own solves, byte for byte,
  // and certified; dense (O(n³): the small l=3 model) returns an exact
  // gain that the checker's bracket around a kernel solve contains, and
  // a strategy whose own stationary gain is that gain.
  const double beta = 0.41;
  for (const auto method :
       {mdp::SolverMethod::kValueIteration, mdp::SolverMethod::kGaussSeidel,
        mdp::SolverMethod::kDensePolicyIteration}) {
    const bool dense = method == mdp::SolverMethod::kDensePolicyIteration;
    const auto model = dense ? build(1, 1, 3) : build(2, 1);
    const mdp::BellmanKernel kernel(model.mdp);
    mdp::SolveOptions options;
    options.method = method;
    const std::string label = "method=" + mdp::to_string(method);
    const auto result = mdp::solve_mean_payoff(kernel, beta, options);
    ASSERT_TRUE(result.converged) << label;
    if (!dense) {
      expect_identical(result,
                       method == mdp::SolverMethod::kValueIteration
                           ? kernel.value_iteration(beta)
                           : kernel.gauss_seidel(beta),
                       label);
      certify::expect_certified_solve(model.mdp, beta, result, label);
      continue;
    }
    EXPECT_EQ(result.gain_lo, result.gain) << label;
    EXPECT_EQ(result.gain_hi, result.gain) << label;
    const auto vi = kernel.value_iteration(beta);
    const auto b = mdp::check_gain_bracket(model.mdp, beta, vi.values,
                                           vi.policy);
    EXPECT_LE(b.lo, result.gain + certify::kSlack) << label;
    EXPECT_GE(b.hi, result.gain - certify::kSlack) << label;
    EXPECT_NEAR(static_cast<double>(
                    certify::stationary_of(model.mdp, result.policy)
                        .gain(beta)),
                result.gain, certify::kSlack)
        << label;
  }
}

TEST(BellmanKernel, ThreadCountInvariantByteForByte) {
  // d=2,f=2 (1348 states) clears the kernel's per-worker floor, so the
  // 8-thread run genuinely takes the parallel path.
  const auto model = build(2, 2);
  ASSERT_GT(model.mdp.num_states(), 1024u);
  const mdp::BellmanKernel kernel(model.mdp);
  for (const double beta : {0.2, 0.43927}) {
    const auto vi_1 = kernel.value_iteration(beta, {}, nullptr, 1);
    const auto vi_8 = kernel.value_iteration(beta, {}, nullptr, 8);
    expect_identical(vi_8, vi_1, "vi beta=" + std::to_string(beta));
    const auto gs_1 = kernel.gauss_seidel(beta, {}, nullptr, 1);
    const auto gs_8 = kernel.gauss_seidel(beta, {}, nullptr, 8);
    expect_identical(gs_8, gs_1, "gs beta=" + std::to_string(beta));
  }
}

TEST(BellmanKernel, ThreadCountInvariantWithWarmStart) {
  const auto model = build(2, 2);
  const mdp::BellmanKernel kernel(model.mdp);
  const auto seed = kernel.value_iteration(0.40);
  const auto warm_1 = kernel.value_iteration(0.42, {}, &seed.values, 1);
  const auto warm_8 = kernel.value_iteration(0.42, {}, &seed.values, 8);
  expect_identical(warm_8, warm_1, "warm-started vi");
  EXPECT_LE(warm_1.iterations, seed.iterations);
}

TEST(BellmanKernel, AnalyzeAnswersAreCertifiedByTheChecker) {
  const auto model = build(2, 1);
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  for (const auto method : {mdp::SolverMethod::kValueIteration,
                            mdp::SolverMethod::kGaussSeidel}) {
    options.solver.method = method;
    const auto answer = analysis::analyze(model, options);
    const std::string label = "method=" + mdp::to_string(method);
    EXPECT_LT(answer.beta_hi - answer.beta_lo, options.epsilon) << label;
    certify::expect_certified_answer(model.mdp, answer, label);
  }
}

TEST(BellmanKernel, AnalyzeThreadCountInvariant) {
  const auto model = build(2, 2);
  analysis::AnalysisOptions options_1, options_8;
  options_1.epsilon = 1e-3;
  options_8.epsilon = 1e-3;
  options_8.solver.threads = 8;
  const auto serial = analysis::analyze(model, options_1);
  const auto threaded = analysis::analyze(model, options_8);
  EXPECT_EQ(threaded.errev_lower_bound, serial.errev_lower_bound);
  EXPECT_EQ(threaded.errev_of_policy, serial.errev_of_policy);
  EXPECT_EQ(threaded.policy, serial.policy);
  EXPECT_TRUE(same_bytes(threaded.final_values, serial.final_values));
}

TEST(BellmanKernel, NonConvergedRunStillReturnsConsistentPolicy) {
  // Without convergence no bound is claimed; what holds for any value
  // vector still must: the checker's bracket is ordered, every state got
  // one of its own actions, and the result is thread-count invariant.
  const auto model = build(2, 1);
  const mdp::Mdp& m = model.mdp;
  const mdp::BellmanKernel kernel(m);
  mdp::MeanPayoffOptions options;
  options.max_iterations = 3;
  options.tol = 1e-15;
  const double beta = 0.41;
  const auto vi_1 = kernel.value_iteration(beta, options, nullptr, 1);
  const auto gs_1 = kernel.gauss_seidel(beta, options, nullptr, 1);
  for (const auto* r : {&vi_1, &gs_1}) {
    EXPECT_FALSE(r->converged);
    EXPECT_EQ(r->iterations, 3);
    for (mdp::StateId s = 0; s < m.num_states(); ++s) {
      ASSERT_NE(r->policy[s], mdp::kInvalidAction);
      EXPECT_EQ(m.action_state(r->policy[s]), s);
    }
    const auto b = mdp::check_gain_bracket(m, beta, r->values, r->policy);
    EXPECT_LE(b.lo, b.hi);
  }
  expect_identical(kernel.value_iteration(beta, options, nullptr, 8), vi_1,
                   "non-converged vi");
  expect_identical(kernel.gauss_seidel(beta, options, nullptr, 8), gs_1,
                   "non-converged gs");
}

TEST(BellmanKernel, RejectsBadArguments) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const mdp::BellmanKernel kernel(m);
  mdp::MeanPayoffOptions options;
  options.tau = 0.0;
  EXPECT_THROW(kernel.value_iteration(0.0, options),
               support::InvalidArgument);
  options.tau = 0.5;
  options.tol = 0.0;
  EXPECT_THROW(kernel.gauss_seidel(0.0, options), support::InvalidArgument);
  options.tol = 1e-7;
  options.max_iterations = 0;
  EXPECT_THROW(kernel.value_iteration(0.0, options),
               support::InvalidArgument);
}

TEST(BellmanKernel, WarmStartSizeMismatchRejectsWithReason) {
  // The pre-PR kernel compared warm_start->size() (size_t) against the
  // 32-bit state count and silently cold-started on mismatch — masking
  // caller bugs AND breaking the job-key promise that a warm-keyed
  // result really was warm-started. Now it rejects loudly; the one
  // legitimate cross-model boundary (grid neighbors with different
  // reachable-state counts) is handled explicitly in analysis::analyze.
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  const std::vector<double> wrong_small(3, 0.0);
  const std::vector<double> wrong_big(model.mdp.num_states() + 1, 0.0);
  EXPECT_THROW(kernel.value_iteration(0.41, {}, &wrong_small),
               support::InvalidArgument);
  EXPECT_THROW(kernel.value_iteration(0.41, {}, &wrong_big),
               support::InvalidArgument);
  EXPECT_THROW(kernel.gauss_seidel(0.41, {}, &wrong_small),
               support::InvalidArgument);
  // Exact-size warm start still accepted.
  const auto seed = kernel.value_iteration(0.41);
  EXPECT_NO_THROW(kernel.value_iteration(0.42, {}, &seed.values));
}

TEST(BellmanKernel, ReportsSoAFootprint) {
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  // targets (4 B) + probs (8 B) per transition, adv + tot per action.
  EXPECT_GE(kernel.memory_bytes(),
            model.mdp.num_transitions() * 12 +
                model.mdp.num_actions() * 16);
}

}  // namespace
