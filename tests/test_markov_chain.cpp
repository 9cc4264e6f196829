// Stationary distributions, reachability and policy validation, and the
// exact ERRev built on them, checked against a dense long-double solve.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "support/check.hpp"

#include "analysis/algorithm1.hpp"
#include "analysis/errev.hpp"
#include "mdp/builder.hpp"
#include "mdp/markov_chain.hpp"
#include "selfish/build.hpp"
#include "test_helpers.hpp"

namespace {

TEST(MarkovChain, ValidatePolicyCatchesErrors) {
  const mdp::Mdp m = test_helpers::two_action_choice();
  EXPECT_NO_THROW(mdp::validate_policy(m, {0, 2}));
  EXPECT_NO_THROW(mdp::validate_policy(m, {1, 2}));
  EXPECT_THROW(mdp::validate_policy(m, {2, 2}), support::InvalidArgument);
  EXPECT_THROW(mdp::validate_policy(m, {0}), support::InvalidArgument);
}

TEST(MarkovChain, ReachabilityAllActions) {
  // s0 -> s1 (only via action "go"); s2 unreachable.
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(0, 1.0);
  b.add_action();
  b.add_transition(1, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  b.add_state();  // isolated
  b.add_action();
  b.add_transition(2, 1.0);
  const mdp::Mdp m = b.build(0);

  const auto reach = mdp::reachable_states(m, 0);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
}

TEST(MarkovChain, ReachabilityUnderPolicy) {
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();  // stay
  b.add_transition(0, 1.0);
  b.add_action();  // go
  b.add_transition(1, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  const mdp::Mdp m = b.build(0);

  const auto stay = mdp::reachable_states(m, mdp::Policy{0, 2}, 0);
  EXPECT_TRUE(stay[0]);
  EXPECT_FALSE(stay[1]);
  const auto go = mdp::reachable_states(m, mdp::Policy{1, 2}, 0);
  EXPECT_TRUE(go[1]);
}

TEST(MarkovChain, StationaryOfCycleIsUniform) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const auto result = mdp::stationary_distribution(m, {0, 1});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.distribution[0], 0.5, 1e-9);
  EXPECT_NEAR(result.distribution[1], 0.5, 1e-9);
}

TEST(MarkovChain, StationaryOfBiasedChain) {
  // s0 → s1 w.p. 1; s1 → s0 w.p. 0.5, stays w.p. 0.5.
  // Stationary: μ = (1/3, 2/3).
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(0, 0.5);
  b.add_transition(1, 0.5);
  const mdp::Mdp m = b.build(0);
  const auto result = mdp::stationary_distribution(m, {0, 1});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.distribution[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(result.distribution[1], 2.0 / 3.0, 1e-9);
}

TEST(MarkovChain, StationarySumsToOne) {
  support::Rng rng(123);
  const mdp::Mdp m = test_helpers::random_unichain(rng, 60, 3, 4);
  mdp::Policy policy(m.num_states());
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    policy[s] = m.action_begin(s);
  }
  const auto result = mdp::stationary_distribution(m, policy);
  ASSERT_TRUE(result.converged);
  double total = 0.0;
  for (double x : result.distribution) {
    EXPECT_GE(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MarkovChain, PolicyGainIsStationaryAverage) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const mdp::Policy policy{0, 1};
  const auto st = mdp::stationary_distribution(m, policy);
  const auto rewards = m.beta_rewards(0.0);
  const double gain = mdp::policy_gain(m, policy, rewards, st.distribution);
  EXPECT_NEAR(gain, 0.5, 1e-9);
}

TEST(MarkovChain, StationaryIgnoresTransientStates) {
  // s0 → s1; s1 ↔ s2 cycle. s0 is transient: stationary mass 0.
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(2, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  const mdp::Mdp m = b.build(0);
  const auto result = mdp::stationary_distribution(m, {0, 1, 2});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.distribution[0], 0.0, 1e-9);
  EXPECT_NEAR(result.distribution[1], 0.5, 1e-9);
  EXPECT_NEAR(result.distribution[2], 0.5, 1e-9);
}

TEST(MarkovChain, AbsorbingStateIsAPointMass) {
  // s0 → s0 w.p. 0.5, → s1 w.p. 0.5; s1 absorbs. μ = δ_{s1}, no NaN from
  // the absorbing state's 1 − P(s1,s1) = 0.
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(0, 0.5);
  b.add_transition(1, 0.5);
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  const mdp::Mdp m = b.build(0);
  const auto result = mdp::stationary_distribution(m, {0, 1});
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.closed_states, 1u);
  EXPECT_EQ(result.distribution[0], 0.0);
  EXPECT_EQ(result.distribution[1], 1.0);
  EXPECT_EQ(result.residual, 0.0);
}

TEST(MarkovChain, TwoReachableClosedClassesAreRejected) {
  // s0 splits into two absorbing states: not unichain, so there is no
  // unique stationary distribution to return.
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(1, 0.5);
  b.add_transition(2, 0.5);
  for (mdp::StateId s = 1; s <= 2; ++s) {
    b.add_state();
    b.add_action();
    b.add_transition(s, 1.0);
  }
  const mdp::Mdp m = b.build(0);
  EXPECT_THROW(mdp::stationary_distribution(m, {0, 1, 2}),
               support::InvalidArgument);
}

TEST(MarkovChain, SelfLoopHeavyChain) {
  // A three-cycle whose states mostly stay put: s0 leaves w.p. 1e-3, s1
  // w.p. 1e-2, s2 w.p. 1e-1. Flux balance gives μ ∝ (1000, 100, 10).
  const std::pair<double, double> exits[3] = {
      {1e-3, 1.0 - 1e-3}, {1e-2, 1.0 - 1e-2}, {1e-1, 1.0 - 1e-1}};
  mdp::MdpBuilder b;
  for (mdp::StateId s = 0; s < 3; ++s) {
    b.add_state();
    b.add_action();
    b.add_transition(s, exits[s].second);
    b.add_transition((s + 1) % 3, exits[s].first);
  }
  const mdp::Mdp m = b.build(0);
  const auto result = mdp::stationary_distribution(m, {0, 1, 2});
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.closed_states, 3u);
  EXPECT_NEAR(result.distribution[0], 1000.0 / 1110.0, 1e-12);
  EXPECT_NEAR(result.distribution[1], 100.0 / 1110.0, 1e-12);
  EXPECT_NEAR(result.distribution[2], 10.0 / 1110.0, 1e-12);
  EXPECT_LE(result.residual, 1e-12);
}

TEST(MarkovChain, ResidualIsTinyOnRandomUnichains) {
  support::Rng rng(2024);
  for (int trial = 0; trial < 5; ++trial) {
    const mdp::Mdp m = test_helpers::random_unichain(rng, 200, 3, 4);
    mdp::Policy policy(m.num_states());
    for (mdp::StateId s = 0; s < m.num_states(); ++s) {
      policy[s] = m.action_end(s) - 1;
    }
    const auto result = mdp::stationary_distribution(m, policy);
    ASSERT_TRUE(result.converged) << "trial " << trial;
    EXPECT_LE(result.residual, 1e-12) << "trial " << trial;
  }
}

TEST(MarkovChain, TightToleranceConvergesOnAHub) {
  // Every state of random_unichain has an edge back to state 0, so state
  // 0 has ~400k in-edges. The rounding of a sum that long must not keep
  // the sweep-to-sweep change above a tolerance of 1e-15.
  support::Rng rng(7);
  const mdp::Mdp m = test_helpers::random_unichain(rng, 400'000, 1, 2);
  mdp::Policy first(m.num_states());
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    first[s] = m.action_begin(s);
  }
  mdp::StationaryOptions options;
  options.tol = 1e-15;
  options.max_iterations = 500;
  const auto result = mdp::stationary_distribution(m, first, options);
  EXPECT_TRUE(result.converged) << result.iterations << " sweeps";
  EXPECT_LE(result.residual, 1e-14);
}

/// Independent reference for exact ERRev: μ(I − P) = 0 with Σμ = 1 over
/// the states the policy reaches from the initial state, solved by dense
/// long-double Gaussian elimination with partial pivoting; the finalized
/// block rates are summed from the transitions' own counters.
long double dense_errev(const selfish::SelfishModel& model,
                        const mdp::Policy& policy) {
  const mdp::Mdp& m = model.mdp;
  const auto reach = mdp::reachable_states(m, policy, m.initial_state());
  std::vector<mdp::StateId> states;
  std::vector<std::size_t> index(m.num_states(), 0);
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    if (!reach[s]) continue;
    index[s] = states.size();
    states.push_back(s);
  }
  // Row i, column j: δ_ij − P(state j, state i); the last row becomes
  // Σμ = 1. Column k holds the right-hand side.
  const std::size_t k = states.size();
  const std::size_t width = k + 1;
  std::vector<long double> a(k * width, 0.0L);
  for (std::size_t j = 0; j < k; ++j) {
    a[j * width + j] += 1.0L;
    for (const mdp::Transition& t : m.transitions(policy[states[j]])) {
      a[index[t.target] * width + j] -= t.prob;
    }
  }
  for (std::size_t j = 0; j < width; ++j) a[(k - 1) * width + j] = 1.0L;

  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < k; ++r) {
      if (std::fabs(a[r * width + col]) > std::fabs(a[pivot * width + col])) {
        pivot = r;
      }
    }
    for (std::size_t j = 0; j < width; ++j) {
      std::swap(a[col * width + j], a[pivot * width + j]);
    }
    for (std::size_t r = col + 1; r < k; ++r) {
      const long double factor = a[r * width + col] / a[col * width + col];
      if (factor == 0.0L) continue;
      for (std::size_t j = col; j < width; ++j) {
        a[r * width + j] -= factor * a[col * width + j];
      }
    }
  }
  std::vector<long double> mu(k, 0.0L);
  for (std::size_t r = k; r-- > 0;) {
    long double x = a[r * width + k];
    for (std::size_t j = r + 1; j < k; ++j) x -= a[r * width + j] * mu[j];
    mu[r] = x / a[r * width + r];
  }

  long double adversary = 0.0L, total = 0.0L;
  for (std::size_t j = 0; j < k; ++j) {
    for (const mdp::Transition& t : m.transitions(policy[states[j]])) {
      adversary += mu[j] * t.prob * t.counts.adversary;
      total += mu[j] * t.prob * (t.counts.adversary + t.counts.honest);
    }
  }
  return adversary / total;
}

TEST(ExactErrev, MatchesDenseLongDoubleSolve) {
  struct Case {
    int d, f;
    double gamma, p;
  };
  for (const Case& c : {Case{1, 1, 0.5, 0.3}, Case{2, 1, 0.0, 0.3},
                        Case{2, 1, 1.0, 0.2}, Case{2, 2, 0.5, 0.3},
                        Case{2, 2, 0.75, 0.1}}) {
    const auto model = selfish::build_model(selfish::AttackParams{
        .p = c.p, .gamma = c.gamma, .d = c.d, .f = c.f, .l = 4});
    ASSERT_LE(model.mdp.num_states(), 1348u);
    analysis::AnalysisOptions options;
    options.epsilon = 1e-3;
    const auto result = analysis::analyze(model, options);
    const double exact = analysis::exact_errev(model, result.policy);
    const long double reference = dense_errev(model, result.policy);
    EXPECT_LE(std::fabs(static_cast<long double>(exact) - reference), 1e-13L)
        << "d=" << c.d << " f=" << c.f << " gamma=" << c.gamma
        << " p=" << c.p << ": " << exact << " vs "
        << static_cast<double>(reference);
    EXPECT_EQ(result.errev_of_policy, exact);
  }
}

}  // namespace
