// Certificate assertions shared by the solver and analysis tests. Every
// claim is re-verified with mdp/certificate_check.hpp, which shares no
// code with the solver under test and works in long double.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "analysis/algorithm1.hpp"
#include "mdp/bellman_kernel.hpp"
#include "mdp/certificate_check.hpp"
#include "mdp/markov_chain.hpp"

namespace certify {

/// Rounding slack between the solver's double sums and the checker's.
inline constexpr double kSlack = 1e-12;

/// The checker's view of a strategy: its stationary distribution's
/// recomputed residual, mass and counter rates.
inline mdp::StationaryCheck stationary_of(const mdp::Mdp& m,
                                          const mdp::Policy& policy) {
  const auto mu = mdp::stationary_distribution(m, policy).distribution;
  return mdp::check_stationary(m, policy, mu);
}

/// A converged solve at β: the checker's Odoni bracket on the returned
/// values lies inside the solver's [gain_lo, gain_hi], and the returned
/// strategy's own gain (from its stationary distribution) lies there too
/// — it is greedy for the values the final sweep read, so its gain is at
/// least gain_lo.
inline void expect_certified_solve(const mdp::Mdp& m, double beta,
                                   const mdp::MeanPayoffResult& r,
                                   const std::string& where) {
  ASSERT_TRUE(r.converged) << where;
  const mdp::GainBracket b =
      mdp::check_gain_bracket(m, beta, r.values, r.policy);
  EXPECT_LE(b.lo, b.hi) << where;
  EXPECT_GE(b.lo, r.gain_lo - kSlack) << where;
  EXPECT_LE(b.hi, r.gain_hi + kSlack) << where;
  const mdp::StationaryCheck st = stationary_of(m, r.policy);
  EXPECT_LE(st.residual, kSlack) << where;
  EXPECT_GE(st.gain(beta), r.gain_lo - kSlack) << where;
  EXPECT_LE(st.gain(beta), r.gain_hi + kSlack) << where;
}

/// An analysis answer: the checker confirms MP*(β_hi) < 0 from the final
/// solve's values alone (so ERRev* < β_hi), and the stationary check of
/// the returned strategy reproduces its exact ERRev (= β_lo).
inline void expect_certified_answer(const mdp::Mdp& m,
                                    const analysis::AnalysisResult& r,
                                    const std::string& where) {
  const mdp::GainBracket b =
      mdp::check_gain_bracket(m, r.beta_hi, r.final_values, r.policy);
  EXPECT_LT(b.hi, 0.0L) << where;
  const mdp::StationaryCheck st = stationary_of(m, r.policy);
  EXPECT_LE(st.residual, kSlack) << where;
  EXPECT_LE(st.mass_error, kSlack) << where;
  EXPECT_NEAR(static_cast<double>(st.ratio()), r.errev_of_policy, kSlack)
      << where;
}

}  // namespace certify
