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
// On top of the SoA layout, the hot gather v[targets[i]] — the one
// latency-bound access in the sweep — is serviced three ways, selected
// by `KernelTuning`: a software-prefetched scalar loop, an AVX2 hardware
// gather, or an AVX-512 gather (the ISA paths live in their own
// translation units behind runtime CPU dispatch; see bellman_gather.hpp).
// The SIMD paths vectorize only the element-wise products
// probs[i]·v[targets[i]] and keep every summation in scalar program
// order, so all gather modes produce byte-identical results — the
// scalar fallback remains the always-tested reference.
//
// Determinism contract: synchronous sweeps (value iteration, the
// Gauss–Seidel certifier, policy extraction) are parallelized over
// contiguous state chunks. Every state's backup reads only the previous
// sweep's vector, per-chunk min/max delta reductions are combined in
// chunk order, and min/max are exact regardless of grouping — so results
// are bit-identical at any thread count and at any gather mode, and
// bit-identical to the legacy AoS path in mdp/value_iteration.cpp (which
// stays as the reference implementation; test_mdp_kernel pins both
// equivalences). Gauss–Seidel's in-place sweeps are order-dependent:
// under the default SweepMode::kOrdered they stay serial (and byte-
// identical to the legacy path); SweepMode::kRedBlack replaces them with
// a two-phase state-colored sweep whose phases parallelize — a
// *different* certified iterate path with its own golden pins (still
// thread-count invariant), guarded by the engine::kCodeVersionSalt bump.
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
#include <string>
#include <vector>

#include "mdp/mdp.hpp"
#include "mdp/value_iteration.hpp"
#include "support/aligned.hpp"

namespace support {
class ThreadPool;
}  // namespace support

namespace mdp {

/// Ordering of Gauss–Seidel's in-place sweeps. `kOrdered` is the
/// certified reference: strictly serial ascending-state sweeps,
/// byte-identical to the legacy AoS path. `kRedBlack` colors states by
/// index parity and runs two synchronous half-sweeps (red reads the
/// frozen vector, black additionally sees the new red values), which
/// parallelizes the previously-serial iterations but changes the iterate
/// path — it ships with its own golden pins and is off by default.
/// Value iteration's sweeps are synchronous (Jacobi) and have no
/// ordering; the mode only affects the Gauss–Seidel solver.
enum class SweepMode : std::uint8_t { kOrdered = 0, kRedBlack = 1 };

/// How the sweep services the v[targets[i]] gather. `kAuto` picks the
/// faster of the portable loop and the widest ISA the binary was
/// compiled with AND the running CPU reports (AVX-512 > AVX2), decided
/// once per process by a ~1 ms calibration probe — hardware gathers are
/// microcoded on several x86 implementations (and most virtualized
/// CPUs), where they lose to plain scalar loads, so auto measures
/// instead of assuming. `kScalar` forces the portable loop. The explicit
/// ISA modes reject at solve time when unavailable — probe with
/// gather_mode_available() first. Every mode is byte-identical.
enum class GatherMode : std::uint8_t {
  kAuto = 0,
  kScalar = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// Default software-prefetch lookahead, in transitions (0 = off, the
/// default). Measured on the reference host, the clamped per-transition
/// prefetch costs more in issue bandwidth than it hides in latency — the
/// models average ~1.5 transitions per action, so the hardware
/// prefetcher and the out-of-order window already cover the stream, and
/// the branchless sweep loop is throughput-, not latency-, limited. The
/// knob stays for latency-bound hosts; any distance is byte-identical.
inline constexpr int kDefaultPrefetchDistance = 0;

/// Speed knobs for one solve. Every combination returns byte-identical
/// results except sweep_mode, which selects between the two certified
/// Gauss–Seidel iterate paths (and therefore participates in engine job
/// identity — see engine::solver_options_id).
struct KernelTuning {
  SweepMode sweep_mode = SweepMode::kOrdered;
  GatherMode gather = GatherMode::kAuto;
  int prefetch_distance = kDefaultPrefetchDistance;
};

SweepMode parse_sweep_mode(const std::string& text);
const char* to_string(SweepMode mode);
GatherMode parse_gather_mode(const std::string& text);
const char* to_string(GatherMode mode);

/// True when the mode can run here: compiled in (the -m flags are
/// per-TU, probed at configure time) and supported by the running CPU.
/// kAuto and kScalar are always available.
bool gather_mode_available(GatherMode mode);

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
  /// over state chunks (0 = all hardware threads); the result depends on
  /// neither the thread count nor the gather tuning. A non-null
  /// `warm_start` must match the model's state count exactly — a
  /// mismatched vector is rejected (it would otherwise silently
  /// cold-start and hide a caller bug). A solve must not run
  /// concurrently with another solve on the same kernel instance.
  MeanPayoffResult value_iteration(double beta,
                                   const MeanPayoffOptions& options = {},
                                   const std::vector<double>* warm_start =
                                       nullptr,
                                   int threads = 1,
                                   const KernelTuning& tuning = {}) const;

  /// Gauss–Seidel variant. Under SweepMode::kOrdered it is identical to
  /// mdp::gauss_seidel_value_iteration on the same reward vector
  /// (in-place sweeps serial, certification sweeps parallel); under
  /// SweepMode::kRedBlack the in-place sweeps become two-phase colored
  /// half-sweeps that parallelize — a distinct certified iterate path.
  MeanPayoffResult gauss_seidel(double beta,
                                const MeanPayoffOptions& options = {},
                                const std::vector<double>* warm_start =
                                    nullptr,
                                int threads = 1,
                                const KernelTuning& tuning = {}) const;

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

  /// Sizes the per-chunk gather-product scratch (no-op in scalar mode).
  void ensure_products(std::size_t num_chunks, bool gather_active) const;

  const Mdp* mdp_;
  // The two CSR offset ladders are copied (not referenced) so the whole
  // hot path reads from four dense kernel-owned arrays.
  std::vector<ActionId> action_begin_;   ///< Size num_states + 1.
  std::vector<std::uint32_t> tr_begin_;  ///< Size num_actions + 1.
  std::vector<StateId> targets_;  ///< Flat transition targets (CSR order).
  std::vector<double> probs_;     ///< Flat transition probabilities.
  std::vector<double> adv_;       ///< E[adversary counter] per action.
  std::vector<double> tot_;       ///< E[adversary + honest] per action.
  std::uint32_t max_state_transitions_ = 0;  ///< Widest single state.

  // Solve-lifetime scratch (mutable: solves are logically const). All
  // value-indexed buffers are 64-byte aligned with cache-line padding so
  // rounded chunk edges never false-share and SIMD tails never fault.
  mutable support::AlignedDoubles reward_;  ///< r_β of the current solve.
  mutable support::AlignedDoubles v_;       ///< Current iterate.
  mutable support::AlignedDoubles v_next_;  ///< Sweep target / certifier.
  mutable support::AlignedDoubles half_;    ///< Red-black phase updates.
  mutable std::vector<support::AlignedDoubles> prod_;  ///< Per-chunk tiles.
  mutable std::unique_ptr<support::ThreadPool> pool_;
};

}  // namespace mdp
