// Bandwidth-optimized, thread-parallel Bellman backup kernel.
//
// The mean-payoff solvers spend essentially all of their time in the
// Bellman backup loop. On the AoS `Transition` array every inner-loop
// iteration drags a 24-byte struct (target + prob + unused RewardCounts)
// through cache; the kernel re-indexes the transition data once per Mdp
// into flat structure-of-arrays streams — `targets[]` (4 B) and `probs[]`
// (8 B) in the same CSR order — halving the bytes touched per transition.
// The β-parameterized reward r_β(a) = adv(a) − β·tot(a) is rendered from
// the precomputed `adv[]`/`tot[]` bases into a kernel-owned scratch once
// per solve, so Algorithm 1's search allocates no reward vector per step
// (the seed allocated one per search step).
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
// are bit-identical at any thread count, and bit-identical to the legacy
// AoS path in mdp/value_iteration.cpp (which stays as the reference
// implementation; test_mdp_kernel pins both equivalences). Gauss–Seidel's
// in-place sweeps are order-dependent and stay serial, ascending by state.
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
#include "mdp/value_iteration.hpp"
#include "support/aligned.hpp"

namespace support {
class ThreadPool;
}  // namespace support

namespace mdp {

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

  /// Relative value iteration on the SoA view; semantics and returned
  /// numbers are identical to mdp::value_iteration on the reward vector
  /// Mdp::beta_rewards(beta). `threads` > 1 fans each synchronous sweep
  /// over state chunks (0 = all hardware threads); the result does not
  /// depend on the thread count. A non-null
  /// `warm_start` must match the model's state count exactly — a
  /// mismatched vector is rejected (it would otherwise silently
  /// cold-start and hide a caller bug). A solve must not run
  /// concurrently with another solve on the same kernel instance.
  MeanPayoffResult value_iteration(double beta,
                                   const MeanPayoffOptions& options = {},
                                   const std::vector<double>* warm_start =
                                       nullptr,
                                   int threads = 1) const;

  /// Gauss–Seidel variant, identical to mdp::gauss_seidel_value_iteration
  /// on the same reward vector (in-place sweeps serial, certification
  /// sweeps parallel).
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
  /// rendering once keeps the inner loop at one reward load (like the
  /// legacy path) while still allocating nothing per search step —
  /// the scratch persists across the solves of one analysis.
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
