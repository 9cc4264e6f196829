// Quickstart: build the selfish-mining MDP for one configuration, run the
// formal analysis (Algorithm 1) and print the certified revenue bound.
//
//   ./quickstart [--p=0.3] [--gamma=0.5] [--d=2] [--f=2] [--l=4]
//                [--epsilon=0.001]
#include <cstdio>

#include "analysis/algorithm1.hpp"
#include "baselines/honest.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  support::Options options;
  options.declare("p", "0.3", "adversary's relative resource in [0,1]");
  options.declare("gamma", "0.5", "tie-race switching probability");
  options.declare("d", "2", "attack depth (forks on the last d blocks)");
  options.declare("f", "2", "forks per public block");
  options.declare("l", "4", "maximal private fork length");
  options.declare("epsilon", "0.001", "precision of the revenue bound");
  try {
    options.parse(argc, argv);
  } catch (const support::Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 options.usage("quickstart").c_str());
    return 1;
  }

  const selfish::AttackParams params{
      .p = options.get_double("p"),
      .gamma = options.get_double("gamma"),
      .d = options.get_int("d"),
      .f = options.get_int("f"),
      .l = options.get_int("l"),
  };
  std::printf("Selfish-mining analysis for %s\n", params.to_string().c_str());

  // 1. Build the MDP of §3.2: reachable states × actions × transitions.
  const auto model = selfish::build_model(params);
  std::printf("model: %u states, %u actions, %zu transitions\n",
              model.mdp.num_states(), model.mdp.num_actions(),
              model.mdp.num_transitions());

  // 2. Run Algorithm 1: a Newton search over β, one mean-payoff solve per
  //    step, yielding a certified bracket of width < ε on the optimal
  //    ERRev and a strategy achieving its lower end.
  analysis::AnalysisOptions analysis_options;
  analysis_options.epsilon = options.get_double("epsilon");
  const auto result = analysis::analyze(model, analysis_options);

  std::printf("\ncertified bound:   ERRev* in [%.6f, %.6f]\n",
              result.beta_lo, result.beta_hi);
  std::printf("computed strategy: ERRev(sigma) = %.6f\n",
              result.errev_of_policy);
  std::printf("honest baseline:   ERRev = %.6f\n",
              baselines::honest_errev(params.p));
  std::printf("chain quality drops from %.4f to %.4f under the attack\n",
              1.0 - params.p, 1.0 - result.errev_of_policy);
  std::printf("(%d search steps, %ld solver iterations, %.2f s)\n",
              result.search_iterations, result.solver_iterations,
              result.seconds);
  return 0;
}
