#include "analysis/algorithm1.hpp"

#include <cstdint>
#include <utility>

#include "analysis/errev.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace analysis {

namespace {

/// A step that gains under ε/4 re-solves with tol ×0.1; after this many
/// tightenings in one analysis the solver cannot certify at this ε and the
/// analysis fails instead of guessing.
constexpr int kMaxTightenings = 4;

/// The `stop` attribute of a step span: which exit of mdp::solve_stop the
/// returned bounds meet first. dense ignores decide_sign; for its exact
/// gain (a zero-width interval) the label only tells the gain's sign.
const char* stop_name(mdp::SolveStop stop) {
  switch (stop) {
    case mdp::SolveStop::kSign: return "sign";
    case mdp::SolveStop::kNewton: return "newton";
    case mdp::SolveStop::kWidth: return "width";
    case mdp::SolveStop::kNone: break;
  }
  return "none";
}

}  // namespace

AnalysisResult analyze(const selfish::SelfishModel& model,
                       const AnalysisOptions& options,
                       const std::vector<double>* warm_start) {
  SM_REQUIRE(options.epsilon > 0.0 && options.epsilon < 1.0,
             "epsilon out of (0,1): ", options.epsilon);
  const support::Timer timer;
  const mdp::Mdp& m = model.mdp;

  // One SoA view serves every search step; it fuses the β-reward into the
  // backup, so no per-step reward vector is materialized.
  const mdp::BellmanKernel kernel(m);
  mdp::SolveOptions solver = options.solver;  // tol tightens on slow steps
  // Each step needs only the sign of MP*(b), or a strategy that is sure to
  // raise β_lo past b: always stop at the first sweep that decides it.
  solver.mean_payoff.decide_sign = true;
  int tightenings = 0;

  AnalysisResult result;
  result.beta_lo = 0.0;
  result.beta_hi = 1.0;

  std::vector<double> values;
  if (warm_start != nullptr) values = *warm_start;
  // Warm starts arrive from neighboring grid points (engine chains,
  // threshold bisection) whose reachable state count can differ — the
  // set of reachable states depends on p. A foreign-sized vector cannot
  // seed this model's solves (the kernel rejects it rather than silently
  // cold-starting), so the cross-model boundary is handled here, once
  // and explicitly: discard and start cold. Deterministic — the decision
  // is a pure function of the two state counts.
  if (!values.empty() &&
      values.size() != static_cast<std::size_t>(m.num_states())) {
    values.clear();
  }

  const double overshoot = 0.5 * options.epsilon;
  bool have_policy = false;
  for (;;) {
    // One search step: a certified mean-payoff solve at b = β_lo + ε/2,
    // warm-started from the previous step's values.
    const double beta = result.beta_lo + overshoot;
    obs::Span span("analysis.step");
    const std::vector<double>* seed = values.empty() ? nullptr : &values;
    mdp::MeanPayoffResult solve =
        mdp::solve_mean_payoff(kernel, beta, solver, seed);
    SM_ENSURE(solve.converged, "mean-payoff solver did not converge at beta=",
              beta);
    ++result.search_iterations;
    result.solver_iterations += solve.iterations;
    values = std::move(solve.values);
    span.attr("beta", serve::Json(beta));
    span.attr("gain_lo", serve::Json(solve.gain_lo));
    span.attr("gain_hi", serve::Json(solve.gain_hi));
    span.attr("sweeps",
              serve::Json(static_cast<std::int64_t>(solve.iterations)));
    span.attr("stop", serve::Json(stop_name(mdp::solve_stop(
                          solve.gain_lo, solve.gain_hi, solver.mean_payoff))));

    const bool below_root = solve.gain_hi < 0.0;  // certifies β* < b
    if (below_root && have_policy) {
      result.beta_hi = beta;
      span.attr("decision", serve::Json("certify"));
      break;
    }
    // Newton step: the greedy strategy's exact ratio is where the line
    // A(σ) − β·T(σ) crosses 0, and an achievable lower bound. Its gain at
    // b is ≥ gain_lo, so after a Newton stop (gain_lo > 0) the ratio lies
    // past b. Only a width stop with gain_lo ≤ 0 can leave it short; a
    // step that gains under ε/4 means tol is too loose for ε.
    const double ratio = exact_errev(model, solve.policy);
    if (have_policy && ratio < result.beta_lo + 0.5 * overshoot) {
      span.attr("decision", serve::Json("tighten"));
      SM_ENSURE(tightenings < kMaxTightenings,
                "cannot certify a search step at beta=", beta,
                " with epsilon=", options.epsilon, " after ",
                kMaxTightenings, " solver tolerance tightenings (tol=",
                solver.mean_payoff.tol, ")");
      ++tightenings;
      solver.mean_payoff.tol *= 0.1;
      continue;
    }
    result.beta_lo = ratio;
    result.policy = std::move(solve.policy);
    have_policy = true;
    if (below_root) {  // the first step certified at once (e.g. p = 0)
      result.beta_hi = beta;
      span.attr("decision", serve::Json("certify"));
      break;
    }
    span.attr("decision", serve::Json("newton"));
  }
  result.errev_of_policy = result.beta_lo;
  SM_ENSURE(result.beta_lo < result.beta_hi, "empty bracket [",
            result.beta_lo, ", ", result.beta_hi, "]");
  result.errev_lower_bound = result.beta_lo;
  result.final_values = std::move(values);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace analysis
