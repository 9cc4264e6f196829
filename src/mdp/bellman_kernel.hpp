// Bandwidth-optimized, thread-parallel mean-payoff solver — relative value
// iteration and its Gauss–Seidel variant — and the one production solver
// path.
//
// The selfish-mining MDP is unichain under every strategy (the all-honest
// reset state is reachable from everywhere) but 2-periodic (mining states
// alternate with decision states), so plain value iteration oscillates.
// The solvers apply the standard aperiodicity transformation
// P' = τI + (1−τ)P, r' = (1−τ)r, which preserves optimal policies, scales
// the gain by (1−τ), and makes the span-seminorm stopping rule applicable:
//
//   min_s (Tv − v)(s)  ≤  gain'  ≤  max_s (Tv − v)(s)
//
// The returned gain is certified to lie in [gain_lo, gain_hi]; the greedy
// policy is captured during the final (certifying) sweep — arg-max w.r.t.
// the vector that sweep backed up from — so convergence costs no extra
// sweep. The bound holds for any value vector, which is what lets
// mdp/certificate_check.hpp re-verify a solve from its returned values
// without sharing this code.
//
// When to stop is one predicate, solve_stop(), shared by both solvers.
// By default a solve runs until gain_hi − gain_lo < tol (the width stop).
// A caller that needs only the sign of the optimal gain — Algorithm 1,
// whose every step either certifies β* < β or takes a Newton step —
// sets MeanPayoffOptions::decide_sign and gains two earlier exits:
//
//  * sign stop:   gain_hi < 0 — the optimal gain is certified negative;
//  * Newton stop: gain_lo > 0 and gain_hi − gain_lo < κ·gain_lo
//    (κ = kNewtonStopRatio) — the greedy strategy σ captured in the final
//    sweep has T_σv = Tv, so its own gain is ≥ gain_lo > 0 (Odoni), and
//    the interval is already narrow relative to that gain.
//
// Both exits report converged = true; their interval may be wider than
// tol.
//
// The solvers spend essentially all of their time in the Bellman backup
// loop. On the AoS `Transition` array every inner-loop iteration drags a
// 24-byte struct (target + prob + unused RewardCounts) through cache; the
// kernel re-indexes the transition data once per Mdp into flat
// structure-of-arrays streams — `targets[]` (4 B) and `probs[]` (8 B) in
// the same CSR order — halving the bytes touched per transition. The
// β-parameterized reward r_β(a) = adv(a) − β·tot(a) is rendered from the
// precomputed `adv[]`/`tot[]` bases into a kernel-owned scratch once per
// solve, so Algorithm 1's search allocates no reward vector per step.
//
// Every sweep runs one plain scalar loop: per state, per action, the
// reward plus the ordered sum of probs[i]·v[targets[i]], then a branchless
// arg-max. The models average ~1.5 transitions per action, so the loop is
// throughput-bound and the hardware prefetcher already covers the stream;
// hardware gathers and software prefetch were measured and lost.
//
// Determinism contract: synchronous sweeps (value iteration, the
// Gauss–Seidel certifier, policy extraction) are parallelized over
// contiguous state chunks. Every state's backup reads only the previous
// sweep's vector, per-chunk min/max delta reductions are combined in
// chunk order, and min/max are exact regardless of grouping — so results
// are bit-identical at any thread count (test_mdp_kernel pins it).
// Gauss–Seidel's in-place sweeps are order-dependent and stay serial,
// ascending by state.
//
// Value/scratch buffers are 64-byte aligned and chunk boundaries are
// rounded to cache-line multiples, so concurrent chunk writes never
// share a line. The worker pool and all scratch live for the kernel's
// lifetime: the search steps of one analysis::analyze spawn threads
// once and allocate nothing per solve after the first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mdp/mdp.hpp"
#include "support/aligned.hpp"

namespace support {
class ThreadPool;
}  // namespace support

namespace mdp {

/// κ of the Newton stop: under decide_sign a solve stops once gain_lo > 0
/// and the certified interval is narrower than κ·gain_lo.
inline constexpr double kNewtonStopRatio = 0.5;

struct MeanPayoffOptions {
  /// Width of the certified gain interval at which iteration stops (the
  /// width stop). Under decide_sign a solve may stop earlier, wider.
  double tol = 1e-7;
  /// Hard iteration cap; exceeding it reports converged = false.
  int max_iterations = 2'000'000;
  /// Laziness of the aperiodicity transformation, in (0, 1).
  double tau = 0.5;
  /// Also stop at the first sweep that decides the gain's sign for a
  /// Newton search: the sign stop (gain_hi < 0) or the Newton stop
  /// (gain_lo > 0, width < κ·gain_lo). The dense solver ignores it.
  bool decide_sign = false;
};

/// Why a solve stopped, in the order solve_stop() tests the exits.
enum class SolveStop { kNone, kSign, kNewton, kWidth };

/// The one stop predicate of value_iteration and gauss_seidel, applied to
/// a sweep's certified bounds: kSign or kNewton (only under decide_sign),
/// else kWidth when gain_hi − gain_lo < tol, else kNone (keep sweeping).
SolveStop solve_stop(double gain_lo, double gain_hi,
                     const MeanPayoffOptions& options);

struct MeanPayoffResult {
  /// Midpoint of the certified interval. Within tol/2 of the optimal gain
  /// after a width stop; after a sign or Newton stop it is only certified
  /// to lie in [gain_lo, gain_hi].
  double gain = 0.0;
  double gain_lo = 0.0;  ///< Certified lower bound on the optimal gain.
  double gain_hi = 0.0;  ///< Certified upper bound on the optimal gain.
  std::vector<ActionId> policy;  ///< Greedy positional strategy (global ids).
  std::vector<double> values;    ///< Final relative value vector.
  int iterations = 0;
  /// True when a stop of solve_stop() fired; false when max_iterations
  /// ran out first.
  bool converged = false;
};

class BellmanKernel {
 public:
  /// Builds the SoA view. The Mdp must outlive the kernel.
  explicit BellmanKernel(const Mdp& mdp);

  // Out of line: the pool member's type is only forward-declared here.
  ~BellmanKernel();

  const Mdp& mdp() const { return *mdp_; }

  /// Fused expected immediate reward of an action under r_β — the same
  /// arithmetic as Mdp::beta_reward (tot is precomputed as adv + hon).
  double reward(ActionId a, double beta) const {
    return adv_[a] - beta * tot_[a];
  }

  /// Relative value iteration maximizing the mean payoff of the reward
  /// r_β = Mdp::beta_reward(·, beta). `threads` > 1 fans each synchronous
  /// sweep over state chunks (0 = all hardware threads); the result does
  /// not depend on the thread count. A non-null
  /// `warm_start` must match the model's state count exactly — a
  /// mismatched vector is rejected (it would otherwise silently
  /// cold-start and hide a caller bug). A solve must not run
  /// concurrently with another solve on the same kernel instance.
  MeanPayoffResult value_iteration(double beta,
                                   const MeanPayoffOptions& options = {},
                                   const std::vector<double>* warm_start =
                                       nullptr,
                                   int threads = 1) const;

  /// Gauss–Seidel variant: Bellman backups update the value vector in
  /// place (each state immediately sees its predecessors' new values).
  /// Whenever the in-place sweeps look converged, and at least every 16
  /// sweeps, one *synchronous* sweep computes the Odoni bounds min/max
  /// (Tv − v) — valid for an arbitrary value vector — so the returned
  /// [gain_lo, gain_hi] carries the same guarantee as value_iteration's.
  /// `iterations` counts both sweep kinds. Every stop of solve_stop() is
  /// tested on the synchronous sweeps only. On the selfish-mining models
  /// it takes about as many sweeps as value_iteration: an `analyze` at
  /// d=3,f=2 takes 198 (vi) vs 221 (gs) solver iterations. In-place
  /// sweeps are serial; certification sweeps use `threads`.
  MeanPayoffResult gauss_seidel(double beta,
                                const MeanPayoffOptions& options = {},
                                const std::vector<double>* warm_start =
                                    nullptr,
                                int threads = 1) const;

  /// Heap footprint of the SoA arrays (on top of the Mdp's own storage).
  std::size_t memory_bytes() const;

  /// Bytes one synchronous backup sweep streams through memory: the flat
  /// transition arrays plus the value gather per transition, the reward
  /// and offset loads per action, and the value read + write per state.
  /// Dividing by measured per-sweep wall time gives the achieved GB/s the
  /// ROADMAP's roofline item asks for (exported as
  /// selfish_mdp_bytes_per_sweep / selfish_mdp_achieved_gbps).
  std::size_t bytes_per_sweep() const;

 private:
  friend struct BellmanKernelView;

  /// Renders r_β into the solve-local scratch `reward_`, once per solve.
  /// The models average only ~1.5 transitions per action, so recomputing
  /// adv − β·tot inside every sweep would cost ~40% extra arithmetic;
  /// rendering once keeps the inner loop at one reward load while still
  /// allocating nothing per search step — the scratch persists across the
  /// solves of one analysis.
  void fuse_rewards(double beta) const;

  /// Copies warm_start (validated) or zeros into the aligned iterate
  /// buffer v_ and sizes the companion scratch.
  void init_values(const std::vector<double>* warm_start) const;

  /// Returns the pool to sweep with: `threads` resolved, capped so no
  /// worker gets a trivially small state range, reusing the cached pool
  /// when the resolved width matches (the common case across the solves
  /// of one analysis). nullptr means run serial.
  support::ThreadPool* sweep_pool(int threads) const;

  const Mdp* mdp_;
  // The two CSR offset ladders are copied (not referenced) so the whole
  // hot path reads from four dense kernel-owned arrays.
  std::vector<ActionId> action_begin_;   ///< Size num_states + 1.
  std::vector<std::uint32_t> tr_begin_;  ///< Size num_actions + 1.
  std::vector<StateId> targets_;  ///< Flat transition targets (CSR order).
  std::vector<double> probs_;     ///< Flat transition probabilities.
  std::vector<double> adv_;       ///< E[adversary counter] per action.
  std::vector<double> tot_;       ///< E[adversary + honest] per action.

  // Solve-lifetime scratch (mutable: solves are logically const). All
  // value-indexed buffers are 64-byte aligned with cache-line padding so
  // rounded chunk edges never false-share.
  mutable support::AlignedDoubles reward_;  ///< r_β of the current solve.
  mutable support::AlignedDoubles v_;       ///< Current iterate.
  mutable support::AlignedDoubles v_next_;  ///< Sweep target / certifier.
  mutable std::unique_ptr<support::ThreadPool> pool_;
};

}  // namespace mdp
