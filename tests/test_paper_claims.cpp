// Qualitative claims of the paper's evaluation (§4), asserted on the
// tractable configurations. These pin the *shape* of Figure 2 and the key
// takeaways; the bench harnesses regenerate the full series.
#include <gtest/gtest.h>

#include "analysis/algorithm1.hpp"
#include "analysis/sweep.hpp"
#include "baselines/honest.hpp"
#include "baselines/single_tree.hpp"
#include "certify.hpp"

namespace {

/// The exact ERRev of the ε-optimal strategy, after the certificate
/// checker has confirmed the answer behind it.
double optimal_errev(double p, double gamma, int d, int f, int l = 4) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = p, .gamma = gamma, .d = d, .f = f, .l = l});
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result = analysis::analyze(model, options);
  certify::expect_certified_answer(
      model.mdp, result,
      "p=" + std::to_string(p) + " gamma=" + std::to_string(gamma) +
          " d=" + std::to_string(d) + " f=" + std::to_string(f));
  return result.errev_of_policy;
}

double single_tree_errev(double p, double gamma) {
  return baselines::analyze_single_tree(
             baselines::SingleTreeParams{.p = p, .gamma = gamma,
                                         .max_depth = 4, .max_width = 5})
      .errev;
}

// "Our selfish mining attack consistently achieves higher expected relative
// revenue than both baselines for each value of γ, except when d=1 and f=1."
TEST(PaperClaims, AttackDominatesBothBaselines) {
  for (const double gamma : {0.0, 0.5, 1.0}) {
    const double p = 0.3;
    const double ours = optimal_errev(p, gamma, 2, 2);
    EXPECT_GT(ours, baselines::honest_errev(p)) << "gamma=" << gamma;
    EXPECT_GT(ours, single_tree_errev(p, gamma)) << "gamma=" << gamma;
  }
}

// "Already for d=2 and f=1 … our attack achieves higher ERRev than both
// baselines": growing forks at two depths beats a much larger private tree
// at one block.
TEST(PaperClaims, DepthTwoSingleForkBeatsSingleTree) {
  for (const double gamma : {0.0, 0.5, 1.0}) {
    for (const double p : {0.2, 0.3}) {
      const double ours = optimal_errev(p, gamma, 2, 1);
      EXPECT_GT(ours, single_tree_errev(p, gamma))
          << "p=" << p << " gamma=" << gamma;
      EXPECT_GT(ours, p) << "p=" << p << " gamma=" << gamma;
    }
  }
}

// "For γ < 0.5 the achieved ERRev of the strategy with d=f=1 corresponds to
// that of honest mining…"
TEST(PaperClaims, DepthOneMatchesHonestForSmallGamma) {
  for (const double gamma : {0.0, 0.25}) {
    for (const double p : {0.1, 0.3}) {
      EXPECT_NEAR(optimal_errev(p, gamma, 1, 1), p, 2e-3)
          << "p=" << p << " gamma=" << gamma;
    }
  }
}

// "…whereas this strategy only starts to pay off for γ > 0.5 and for the
// proportion of resource p > 0.25."
TEST(PaperClaims, DepthOnePaysOffForLargeGammaAndResource) {
  EXPECT_GT(optimal_errev(0.3, 1.0, 1, 1), 0.3 + 0.01);
  EXPECT_GT(optimal_errev(0.3, 0.75, 1, 1), 0.3 + 0.005);
  // Below the resource threshold the advantage (nearly) vanishes.
  EXPECT_NEAR(optimal_errev(0.1, 0.75, 1, 1), 0.1, 5e-3);
}

// "The attained ERRev grows significantly as we increase d and f."
TEST(PaperClaims, ERRevGrowsWithDepthAndForks) {
  const double p = 0.3, gamma = 0.5;
  const double e11 = optimal_errev(p, gamma, 1, 1);
  const double e21 = optimal_errev(p, gamma, 2, 1);
  const double e22 = optimal_errev(p, gamma, 2, 2);
  EXPECT_GT(e21, e11 + 0.05);
  EXPECT_GT(e22, e21);
}

// "Larger γ values correspond to larger ERRev."
TEST(PaperClaims, ERRevGrowsWithGamma) {
  const double p = 0.3;
  double previous = -1.0;
  for (const double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double errev = optimal_errev(p, gamma, 2, 1);
    EXPECT_GE(errev, previous - 1e-6) << "gamma=" << gamma;
    previous = errev;
  }
}

// Figure 2 end-point magnitude: at p = 0.3 the paper reports an ERRev gap
// of at least ~0.1 over both baselines already for moderate configurations
// (reaching 0.2 at d=4, f=2 — checked in the opt-in full bench instead).
TEST(PaperClaims, GapOverBaselinesIsSubstantial) {
  const double p = 0.3, gamma = 0.5;
  const double ours = optimal_errev(p, gamma, 2, 2);
  EXPECT_GT(ours - baselines::honest_errev(p), 0.1);
  EXPECT_GT(ours - single_tree_errev(p, gamma), 0.1);
}

// ERRev* is bounded: the adversary cannot exceed the trivial cap of 1 and
// at p=0 earns nothing, for any configuration.
TEST(PaperClaims, SanityBounds) {
  EXPECT_NEAR(optimal_errev(0.0, 1.0, 2, 1), 0.0, 1e-6);
  const double high = optimal_errev(0.45, 1.0, 2, 2);
  EXPECT_LT(high, 1.0);
  EXPECT_GT(high, 0.45);
}

}  // namespace
