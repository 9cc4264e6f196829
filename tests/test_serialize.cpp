// Binary model serialization: MDP round trips and the selfish-model cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "analysis/errev.hpp"
#include "mdp/serialize.hpp"
#include "mdp/bellman_kernel.hpp"
#include "selfish/cache.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

void expect_same_structure(const mdp::Mdp& a, const mdp::Mdp& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.num_actions(), b.num_actions());
  ASSERT_EQ(a.num_transitions(), b.num_transitions());
  EXPECT_EQ(a.initial_state(), b.initial_state());
  for (mdp::ActionId act = 0; act < a.num_actions(); ++act) {
    EXPECT_EQ(a.action_state(act), b.action_state(act));
    EXPECT_EQ(a.action_label(act), b.action_label(act));
    const auto ta = a.transitions(act);
    const auto tb = b.transitions(act);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].target, tb[i].target);
      EXPECT_DOUBLE_EQ(ta[i].prob, tb[i].prob);
      EXPECT_EQ(ta[i].counts, tb[i].counts);
    }
  }
}

TEST(MdpSerialize, RoundTripSmallModel) {
  const mdp::Mdp original = test_helpers::two_action_choice();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  mdp::save_binary(original, buffer);
  const mdp::Mdp loaded = mdp::load_binary(buffer);
  expect_same_structure(original, loaded);
}

TEST(MdpSerialize, RoundTripRandomModel) {
  support::Rng rng(606);
  const mdp::Mdp original = test_helpers::random_unichain(rng, 40, 3, 4);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  mdp::save_binary(original, buffer);
  const mdp::Mdp loaded = mdp::load_binary(buffer);
  expect_same_structure(original, loaded);
  // Behavior preserved, not just structure.
  const auto via_original = mdp::BellmanKernel(original).value_iteration(0.3);
  const auto via_loaded = mdp::BellmanKernel(loaded).value_iteration(0.3);
  EXPECT_NEAR(via_original.gain, via_loaded.gain, 1e-9);
}

TEST(MdpSerialize, RejectsGarbage) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  buffer << "not a model";
  EXPECT_THROW(mdp::load_binary(buffer), support::Error);
}

TEST(MdpSerialize, RejectsTruncation) {
  const mdp::Mdp original = test_helpers::two_state_cycle();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  mdp::save_binary(original, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2),
                              std::ios::in | std::ios::binary);
  EXPECT_THROW(mdp::load_binary(truncated), support::Error);
}

TEST(ModelCache, RoundTripPreservesAnalysis) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const auto original = selfish::build_model(params);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  selfish::save_model(original, buffer);
  const auto loaded = selfish::load_model(buffer, params);

  expect_same_structure(original.mdp, loaded.mdp);
  for (mdp::StateId s = 0; s < original.mdp.num_states(); ++s) {
    EXPECT_EQ(original.space.state_of(s), loaded.space.state_of(s));
  }
}

TEST(ModelCache, RejectsParameterMismatch) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
  const auto model = selfish::build_model(params);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  selfish::save_model(model, buffer);
  selfish::AttackParams other = params;
  other.gamma = 0.75;
  EXPECT_THROW(selfish::load_model(buffer, other), support::InvalidArgument);
}

TEST(ModelCache, BuildOrLoadUsesAndRefreshesTheFile) {
  const selfish::AttackParams params{.p = 0.25, .gamma = 0.5, .d = 2, .f = 1, .l = 3};
  const std::string path = "model_cache_test.bin";
  std::remove(path.c_str());

  // First call builds and writes the cache.
  const auto first = selfish::build_or_load_model(params, path);
  // Second call must load the identical model from disk.
  const auto second = selfish::build_or_load_model(params, path);
  expect_same_structure(first.mdp, second.mdp);

  // A different configuration ignores the stale cache and rebuilds.
  selfish::AttackParams other = params;
  other.p = 0.3;
  const auto third = selfish::build_or_load_model(other, path);
  EXPECT_EQ(third.params.p, 0.3);
  std::remove(path.c_str());
}

}  // namespace
