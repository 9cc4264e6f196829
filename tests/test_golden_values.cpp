// Golden-value regression pins.
//
// The exact ERRev of the optimal strategy for a grid of configurations,
// as measured by this implementation (see EXPERIMENTS.md). These are not
// paper-derived truths — the paper's exact numbers depend on its
// under-specified tie semantics — but regression anchors: any future
// change to the transition semantics, reward accounting or solvers that
// moves these values is a behavioral change and must be deliberate. Every
// answer is also re-verified by the independent certificate checker
// (certify.hpp): MP*(β_hi) < 0 from the final values, and the strategy's
// stationary ratio.
#include <gtest/gtest.h>

#include <string>

#include "analysis/algorithm1.hpp"
#include "baselines/eyal_sirer.hpp"
#include "baselines/single_tree.hpp"
#include "certify.hpp"
#include "selfish/build.hpp"

namespace {

struct GoldenCase {
  double p, gamma;
  int d, f;
  double errev;  // exact ERRev of the ε-optimal strategy, ε = 1e-4
};

class GoldenValues : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenValues, OptimalERRevIsStable) {
  const GoldenCase c = GetParam();
  const auto model = selfish::build_model(selfish::AttackParams{
      .p = c.p, .gamma = c.gamma, .d = c.d, .f = c.f, .l = 4});
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  const auto result = analysis::analyze(model, options);
  const std::string where = "p=" + std::to_string(c.p) +
                            " gamma=" + std::to_string(c.gamma) +
                            " d=" + std::to_string(c.d) +
                            " f=" + std::to_string(c.f);
  EXPECT_NEAR(result.errev_of_policy, c.errev, 5e-4) << where;
  certify::expect_certified_answer(model.mdp, result, where);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GoldenValues,
    ::testing::Values(
        // Figure 2 end points (p = 0.3) as measured; see EXPERIMENTS.md.
        GoldenCase{0.3, 0.0, 1, 1, 0.30000},
        GoldenCase{0.3, 0.5, 1, 1, 0.30000},
        GoldenCase{0.3, 1.0, 1, 1, 0.42019},
        GoldenCase{0.3, 0.0, 2, 1, 0.37734},
        GoldenCase{0.3, 0.5, 2, 1, 0.41051},
        GoldenCase{0.3, 1.0, 2, 1, 0.50900},
        GoldenCase{0.3, 0.0, 2, 2, 0.39685},
        GoldenCase{0.3, 0.5, 2, 2, 0.43927},
        GoldenCase{0.3, 0.75, 2, 2, 0.48127},
        // Mid-resource sanity points.
        GoldenCase{0.2, 0.5, 2, 2, 0.25277},
        GoldenCase{0.1, 0.5, 2, 1, 0.11482}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      const auto& c = info.param;
      return "d" + std::to_string(c.d) + "f" + std::to_string(c.f) + "g" +
             std::to_string(static_cast<int>(c.gamma * 100)) + "p" +
             std::to_string(static_cast<int>(c.p * 100));
    });

TEST(GoldenValues, SingleTreeBaseline) {
  const baselines::SingleTreeParams params{
      .p = 0.3, .gamma = 0.5, .max_depth = 4, .max_width = 5};
  EXPECT_NEAR(baselines::analyze_single_tree(params).errev, 0.21158, 5e-5);
}

TEST(GoldenValues, DeepConfigurationAtGammaHalf) {
  // The d=3, f=2 Figure-2 point at γ = 0.5 (the heaviest default config).
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 3, .f = 2, .l = 4});
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  const auto result = analysis::analyze(model, options);
  EXPECT_NEAR(result.errev_of_policy, 0.49616, 1e-3);
  // The strategy's exact ERRev to twelve digits: the Gauss–Seidel
  // stationary ratio, which the checker below re-derives in long double.
  EXPECT_NEAR(result.errev_of_policy, 0.49615955889649543, 1e-12);
  certify::expect_certified_answer(model.mdp, result, "d=3 f=2");
}

TEST(GoldenValues, EyalSirerReferencePoints) {
  // PoW selfish mining at the paper-relevant operating points.
  EXPECT_NEAR(baselines::eyal_sirer_revenue({0.3, 0.0}), 0.27314, 1e-4);
  EXPECT_NEAR(baselines::eyal_sirer_revenue({1.0 / 3.0, 0.0}), 1.0 / 3.0,
              1e-9);  // the γ=0 threshold is exactly p = 1/3
}

}  // namespace
