// Algorithm 1 of the paper: the fully automated formal analysis.
//
// Each step solves the mean-payoff MDP for the reward
// r_β = (1−β)·adversary − β·honest. By Theorem 3.1,
//
//   MP*(β) = max_σ [A(σ) − β·T(σ)]
//
// (A the adversary's finalization rate, T the total rate) is convex,
// piecewise linear and decreasing in β, with its root exactly at
// β* = ERRev*. The paper finds the root by binary search over [0, 1]
// (⌈log2(1/ε)⌉ solves). This implementation searches it by Newton steps
// instead — Dinkelbach's method (Management Science 13(7), 1967) — which
// overshoot by ε/2 and take ~2–4 solves per answer at ε = 1e-3:
//
//  * start at β_lo = 0 with no strategy; each step solves at
//    b = β_lo + ε/2, warm-started from the previous step's values;
//  * if a strategy is held and the solve's gain_hi < 0, then MP*(b) < 0,
//    so β* < b is certified: return [β_lo, b];
//  * otherwise take the step's greedy strategy σ and its exact ratio
//    r = ERRev(σ) = A(σ)/T(σ) — the Newton step on MP* from b, and an
//    achievable lower bound — and set β_lo = r. The first step always
//    evaluates its ratio, so an immediate certificate (p = 0) returns
//    [r, ε/2].
//
// Every answer is therefore a certified bracket
//
//   ERRev* ∈ [β_lo, β_hi],  β_hi − β_lo = ε/2 < ε,
//
// plus the strategy σ whose exact ERRev is β_lo itself
// (errev_lower_bound == β_lo == errev_of_policy). The upper end rests on
// a certified gain bound, never on a solve's midpoint.
//
// A step needs only the sign of MP*(b), so each solve stops at the first
// sweep that decides it (mdp::MeanPayoffOptions::decide_sign, which
// analyze always sets — Dinkelbach's method with an inexact inner solve):
//
//  * sign stop, gain_hi < 0: the certificate above, as before;
//  * Newton stop, gain_lo > 0 and gain_hi − gain_lo < κ·gain_lo (κ = 0.5):
//    the greedy σ captured in the final sweep has T_σv = Tv, so its own
//    gain at b is ≥ gain_lo > 0 (Odoni) and its exact ratio is > b — β_lo
//    rises past b = β_lo + ε/2. κ governs only progress: the stop gives
//    gain_lo > gain_hi/(1+κ) ≥ MP*(b)/(1+κ), so σ's gain at b is at
//    least 2/3 of the optimal one and the Newton step nearly full length;
//  * width stop, gain_hi − gain_lo < tol, as for any solve.
//
// Both decision stops are sound however wide the interval still is: the
// upper end rests only on a certified gain_hi < 0, and the lower end is
// the returned strategy's exact, achievable ERRev. At d=3, f=2, p=0.3 the
// four steps take 198 sweeps in all instead of 751. Only a width stop
// with gain_lo ≤ 0 can yield a strategy whose ratio raises β_lo by less
// than ε/4; that means tol is too loose for this ε, and the step is
// re-solved with tol ×0.1, at most four times per analysis.
//
// Implementation: every solve runs on one mdp::BellmanKernel built per
// analysis — the SoA view with the β-reward fused into the backup, whose
// sweeps fan out over AnalysisOptions::solver.threads workers with
// bit-identical results at any thread count (dense, for tiny models,
// solves the AoS model through the same facade). Each answer's
// certificate — gain_hi < 0 at β_hi on final_values, and the strategy's
// stationary ratio — can be re-checked independently of the solver with
// mdp/certificate_check.hpp; the golden and paper-claim tests do so.
// Each solve is traced as one `analysis.step` span carrying β, gain_lo,
// gain_hi, sweeps, how the solve stopped (stop: sign, newton or width)
// and the step's decision (newton, certify or tighten).
//
// The Newton step's exact ratio is a stationary solve on σ's chain
// (analysis/errev.hpp): Gauss–Seidel sweeps over its closed class, ~50
// sweeps at d=3,f=2, traced as an `analysis.exact_errev` child of the
// step. It requires σ's chain to be unichain, which every selfish-mining
// strategy is (paper App. C).
#pragma once

#include <vector>

#include "mdp/markov_chain.hpp"
#include "mdp/solve.hpp"
#include "selfish/build.hpp"

namespace analysis {

struct AnalysisOptions {
  /// Precision ε: the certified bracket on ERRev* is narrower than ε.
  double epsilon = 1e-3;
  /// Mean-payoff solver configuration for each search step.
  mdp::SolveOptions solver;
  /// Has no effect: the search evaluates the exact ERRev of every step's
  /// strategy, so errev_of_policy is always filled. Kept so that callers
  /// which still set it compile; it is not part of a job's identity.
  bool evaluate_exact_errev = true;
};

struct AnalysisResult {
  double errev_lower_bound = 0.0;  ///< β_lo: certified lower bound.
  double beta_lo = 0.0;
  double beta_hi = 1.0;            ///< Certified upper bound on ERRev*.
  /// Exact ERRev(σ) of `policy` (g_A/(g_A+g_H)); equals β_lo.
  double errev_of_policy = 0.0;
  mdp::Policy policy;              ///< ε-optimal selfish-mining strategy.
  int search_iterations = 0;       ///< Mean-payoff solves performed.
  long solver_iterations = 0;      ///< Total inner solver iterations.
  double seconds = 0.0;            ///< Wall-clock time of the analysis.
  std::vector<double> final_values;  ///< Value vector of the last solve
                                     ///< (warm start for related
                                     ///< analyses, e.g. p-sweeps).
};

/// Runs Algorithm 1 on a built model. `warm_start`, if non-null and sized
/// to the model, seeds the first solve (used when sweeping p).
AnalysisResult analyze(const selfish::SelfishModel& model,
                       const AnalysisOptions& options = {},
                       const std::vector<double>* warm_start = nullptr);

}  // namespace analysis
