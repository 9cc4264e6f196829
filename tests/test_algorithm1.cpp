// The formal analysis procedure (Algorithm 1): ε-tightness, consistency
// between the certified bound and the exact policy evaluation, agreement
// of the Newton search with the paper's binary search, and the monotone
// structure both rely on (Theorem 3.1).
#include <gtest/gtest.h>

#include "support/check.hpp"

#include <string>
#include <utility>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "analysis/errev.hpp"
#include "mdp/bellman_kernel.hpp"
#include "mdp/certificate_check.hpp"
#include "mdp/solve.hpp"
#include "selfish/build.hpp"

namespace {

selfish::SelfishModel small_model(double p = 0.3, double gamma = 0.5) {
  return selfish::build_model(
      selfish::AttackParams{.p = p, .gamma = gamma, .d = 2, .f = 1, .l = 4});
}

TEST(Algorithm1, BoundIsEpsilonTight) {
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  const auto result = analysis::analyze(model, options);
  EXPECT_LT(result.beta_hi - result.beta_lo, options.epsilon);
  EXPECT_EQ(result.errev_lower_bound, result.beta_lo);
  // The exact revenue of the returned strategy must lie within the band
  // certified by the search (allowing solver tolerance slack).
  EXPECT_GE(result.errev_of_policy, result.beta_lo - 1e-5);
  EXPECT_LE(result.errev_of_policy, result.beta_hi + 1e-5);
}

TEST(Algorithm1, TighterEpsilonNarrowsTheBand) {
  const auto model = small_model();
  analysis::AnalysisOptions coarse, fine;
  coarse.epsilon = 1e-2;
  fine.epsilon = 1e-4;
  const auto r_coarse = analysis::analyze(model, coarse);
  const auto r_fine = analysis::analyze(model, fine);
  // Both brackets must contain the same ERRev*.
  EXPECT_LE(r_coarse.beta_lo, r_fine.beta_hi + 1e-9);
  EXPECT_GE(r_coarse.beta_hi, r_fine.beta_lo - 1e-9);
  EXPECT_LT(r_fine.beta_hi - r_fine.beta_lo,
            r_coarse.beta_hi - r_coarse.beta_lo);
}

TEST(Algorithm1, MeanPayoffMonotoneInBeta) {
  // Theorem 3.1 rests on MP*_β decreasing in β; verify on the real model.
  const auto model = small_model();
  const mdp::BellmanKernel kernel(model.mdp);
  double previous = 1e100;
  for (double beta = 0.0; beta <= 1.0; beta += 0.2) {
    const auto solve = kernel.value_iteration(beta);
    ASSERT_TRUE(solve.converged);
    EXPECT_LE(solve.gain, previous + 1e-7) << "beta=" << beta;
    previous = solve.gain;
  }
}

TEST(Algorithm1, RootOfMeanPayoffIsERRev) {
  // MP*_β = 0 exactly at β* = ERRev* (Theorem 3.1 part 1): the gain at the
  // returned β_lo must be ≈ 0 from above.
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 1e-5;
  const auto result = analysis::analyze(model, options);
  const auto at_lo =
      mdp::BellmanKernel(model.mdp).value_iteration(result.beta_lo);
  EXPECT_GE(at_lo.gain, -1e-6);
  EXPECT_LE(at_lo.gain, 1e-2);  // small: β_lo is within ε of the root
}

TEST(Algorithm1, DenseSolverAgreesOnTinyModel) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 3});
  analysis::AnalysisOptions vi_options, dense_options;
  vi_options.epsilon = 1e-4;
  dense_options.epsilon = 1e-4;
  dense_options.solver.method = mdp::SolverMethod::kDensePolicyIteration;
  const auto vi = analysis::analyze(model, vi_options);
  const auto dense = analysis::analyze(model, dense_options);
  EXPECT_NEAR(vi.errev_of_policy, dense.errev_of_policy, 1e-6);
}

TEST(Algorithm1, WarmStartPreservesResult) {
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto cold = analysis::analyze(model, options);
  const auto warm = analysis::analyze(model, options, &cold.final_values);
  EXPECT_DOUBLE_EQ(warm.errev_lower_bound, cold.errev_lower_bound);
  EXPECT_LE(warm.solver_iterations, cold.solver_iterations);
}

TEST(Algorithm1, RejectsBadEpsilon) {
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 0.0;
  EXPECT_THROW(analysis::analyze(model, options), support::InvalidArgument);
  options.epsilon = 1.0;
  EXPECT_THROW(analysis::analyze(model, options), support::InvalidArgument);
}

struct Bracket {
  double lo = 0.0, hi = 1.0;
};

/// The paper's Algorithm 1 as written — binary search on β over [0, 1],
/// one warm-started value-iteration solve per step — as a reference for
/// analysis::analyze's Newton search. Each step is decided by the
/// independent checker's gain bracket on the solve's values, not by the
/// solver's own bounds: hi < 0 moves the upper end, lo ≥ 0 the lower end,
/// and a bracket straddling 0 re-solves with tol ×0.1.
Bracket paper_bisection(const selfish::SelfishModel& model, double epsilon) {
  const mdp::BellmanKernel kernel(model.mdp);
  mdp::MeanPayoffOptions solver;
  std::vector<double> values;
  Bracket bracket;
  int tightenings = 0;
  while (bracket.hi - bracket.lo >= epsilon) {
    const double beta = 0.5 * (bracket.lo + bracket.hi);
    auto solve = kernel.value_iteration(beta, solver,
                                        values.empty() ? nullptr : &values);
    const mdp::GainBracket gain =
        mdp::check_gain_bracket(model.mdp, beta, solve.values, solve.policy);
    values = std::move(solve.values);
    if (gain.hi < 0.0L) {
      bracket.hi = beta;
    } else if (gain.lo >= 0.0L) {
      bracket.lo = beta;
    } else {
      SM_ENSURE(++tightenings <= 4, "bisection cannot decide beta=", beta);
      solver.tol *= 0.1;
    }
  }
  return bracket;
}

analysis::AnalysisOptions with_epsilon(double epsilon) {
  analysis::AnalysisOptions options;
  options.epsilon = epsilon;
  return options;
}

template <typename A, typename B>
void expect_overlap(const A& a, const B& b, const std::string& where) {
  EXPECT_LE(a.beta_lo, b.hi) << where;
  EXPECT_LE(b.lo, a.beta_hi) << where;
}

/// The answer's contract: its lower end is the returned strategy's own
/// exact ratio, and the bracket is narrower than ε.
void expect_contract(const analysis::AnalysisResult& r, double epsilon,
                     const std::string& where) {
  EXPECT_EQ(r.errev_lower_bound, r.beta_lo) << where;
  EXPECT_EQ(r.errev_of_policy, r.beta_lo) << where;
  EXPECT_LT(r.beta_lo, r.beta_hi) << where;
  EXPECT_LT(r.beta_hi - r.beta_lo, epsilon) << where;
}

struct SearchCase {
  double p, gamma;
  int d, f;
};

class NewtonVersusBisection : public ::testing::TestWithParam<SearchCase> {};

TEST_P(NewtonVersusBisection, BracketsOverlap) {
  const SearchCase c = GetParam();
  const auto model = selfish::build_model(selfish::AttackParams{
      .p = c.p, .gamma = c.gamma, .d = c.d, .f = c.f, .l = 4});
  const auto newton = analysis::analyze(model, with_epsilon(1e-3));
  const Bracket bisection = paper_bisection(model, 1e-3);
  const std::string where = "p=" + std::to_string(c.p) +
                            " gamma=" + std::to_string(c.gamma) +
                            " d=" + std::to_string(c.d) +
                            " f=" + std::to_string(c.f);
  expect_overlap(newton, bisection, where);
  expect_contract(newton, 1e-3, where);
}

// Every GoldenValues configuration plus the d=3,f=2 deep point.
INSTANTIATE_TEST_SUITE_P(
    GoldenPoints, NewtonVersusBisection,
    ::testing::Values(SearchCase{0.3, 0.0, 1, 1}, SearchCase{0.3, 0.5, 1, 1},
                      SearchCase{0.3, 1.0, 1, 1}, SearchCase{0.3, 0.0, 2, 1},
                      SearchCase{0.3, 0.5, 2, 1}, SearchCase{0.3, 1.0, 2, 1},
                      SearchCase{0.3, 0.0, 2, 2}, SearchCase{0.3, 0.5, 2, 2},
                      SearchCase{0.3, 0.75, 2, 2}, SearchCase{0.2, 0.5, 2, 2},
                      SearchCase{0.1, 0.5, 2, 1}, SearchCase{0.3, 0.5, 3, 2}),
    [](const ::testing::TestParamInfo<SearchCase>& info) {
      const auto& c = info.param;
      return "d" + std::to_string(c.d) + "f" + std::to_string(c.f) + "g" +
             std::to_string(static_cast<int>(c.gamma * 100)) + "p" +
             std::to_string(static_cast<int>(c.p * 100));
    });

TEST(Algorithm1, NewtonTakesFewSteps) {
  for (const auto& [d, f] : {std::pair{2, 1}, std::pair{3, 2}}) {
    const auto model = selfish::build_model(
        selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = d, .f = f, .l = 4});
    const auto result = analysis::analyze(model, with_epsilon(1e-3));
    EXPECT_LE(result.search_iterations, 5) << "d=" << d << " f=" << f;
    expect_contract(result, 1e-3,
                    "d=" + std::to_string(d) + " f=" + std::to_string(f));
  }
}

TEST(Algorithm1, NewtonCertifiesAtOnceWithoutResources) {
  // p = 0: the adversary never finalizes a block, so the first solve's
  // strategy has ratio 0 and its gain at ε/2 is already negative.
  const auto model = small_model(0.0);
  const auto result = analysis::analyze(model, with_epsilon(1e-3));
  EXPECT_EQ(result.search_iterations, 1);
  EXPECT_EQ(result.beta_lo, 0.0);
  EXPECT_EQ(result.beta_hi, 0.5e-3);
  expect_contract(result, 1e-3, "p=0");
}

TEST(Algorithm1, TinyEpsilonTerminatesCertified) {
  const auto model = small_model();
  const auto newton = analysis::analyze(model, with_epsilon(1e-6));
  expect_contract(newton, 1e-6, "eps=1e-6");
  expect_overlap(newton, paper_bisection(model, 1e-6), "eps=1e-6");
}

TEST(Algorithm1, LooseToleranceStillBracketsTheTightAnswer) {
  // A loose solver tolerance can make steps near the root gain too
  // little, so the search tightens it; the bracket it certifies must
  // still hold the tight answer.
  const auto model = small_model();
  const auto tight = analysis::analyze(model, with_epsilon(1e-3));
  auto loose = with_epsilon(1e-3);
  loose.solver.mean_payoff.tol = 1e-4;
  const auto result = analysis::analyze(model, loose);
  expect_contract(result, 1e-3, "tol=1e-4");
  EXPECT_LE(result.beta_lo, tight.beta_hi);
  EXPECT_LE(tight.beta_lo, result.beta_hi);
}

TEST(Algorithm1, ReportsTimings) {
  const auto model = small_model();
  analysis::AnalysisOptions options;
  options.epsilon = 1e-2;
  const auto result = analysis::analyze(model, options);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.solver_iterations, 0);
}

}  // namespace
