// Content-addressed experiment jobs.
//
// Every solve the experiment engine runs is described by a canonical,
// human-readable key string that pins *all* inputs the result depends on:
// the attack parameters, the full solver configuration, a code-version
// salt (bumped whenever model-construction or solver semantics change in a
// result-affecting way), and — crucially — the warm-start lineage. A
// warm-started solve converges to slightly different (still ε-certified)
// numbers than a cold one, so a grid point seeded by its left neighbor is
// a *different job* than the same point solved cold. Keying the lineage
// makes a cache hit an exact promise: the stored result is bit-identical
// to what recomputation would produce.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/algorithm1.hpp"
#include "selfish/params.hpp"

namespace engine {

/// Bumped whenever a change anywhere in the model builder, Algorithm 1, or
/// the mean-payoff solvers can alter computed results: stale store entries
/// from older code then miss instead of serving wrong numbers.
/// v2: policies are captured during the final certified sweep (greedy
/// w.r.t. that sweep's input vector) instead of by an extra extraction
/// sweep — boundary states can pick a different ε-optimal action, so
/// errev_of_policy may shift within the ε band.
/// v3: the Gauss–Seidel solver grew a second certified iterate path
/// (red-black colored sweeps, since removed) and job keys grew a
/// `sweep=` token, now always `sweep=ordered`; bumping the salt made
/// every pre-v3 entry miss so cached artifacts never mixed iterate paths.
/// v4: Algorithm 1 searches by Newton (Dinkelbach) steps instead of
/// bisection, so stored brackets and strategies change; job keys lost the
/// `exact=` token, since every answer now carries its strategy's exact
/// ERRev.
/// v5: exact ERRev (every Newton step's lower end) comes from a
/// Gauss–Seidel stationary solve instead of lazy power iteration, which
/// stopped ~1e-11 short; the low bits of β_lo and errev_of_policy change.
/// v6: each Newton step's solve stops at the first sweep that decides it
/// (sign or Newton stop) instead of at width tol, so steps return other
/// ε-optimal strategies and brackets move within ε.
inline constexpr std::uint32_t kCodeVersionSalt = 6;

/// One Algorithm 1 evaluation: build the model for `params`, analyze with
/// `options`. This is the unit of work behind `analysis::sweep_p`, the
/// p-sweep benches, and `net::prepare_scenario`'s "optimal" attackers.
struct AnalysisJob {
  selfish::AttackParams params;
  analysis::AnalysisOptions options;
};

/// The canonical identity of a job. `canonical` is the full key text (kept
/// in store entries so a hash collision is detected, not trusted); `hash`
/// is FNV-1a over it and addresses the entry on disk.
struct JobKey {
  std::string canonical;
  std::uint64_t hash = 0;

  /// 16-char lowercase hex of `hash` — the on-disk entry name.
  std::string hex() const;

  /// Deterministic RNG stream id for stochastic job kinds: jobs draw from
  /// support::Rng::for_stream(seed(), ...) so outcomes are a pure function
  /// of the job identity, never of scheduling order.
  std::uint64_t seed() const { return hash; }
};

/// FNV-1a 64-bit over `size` bytes starting at `data`.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t basis = 0xcbf29ce484222325ULL);

/// Exact decimal rendering of a double (round-trippable, locale-free) for
/// canonical key strings.
std::string canonical_double(double value);

/// The key of `job` when warm-started from the job identified by
/// `warm_parent` (null = cold start).
JobKey analysis_job_key(const AnalysisJob& job, const JobKey* warm_parent);

/// Canonical rendering of the solver-configuration slice of a job key
/// (method + tolerances; everything a solve's numbers depend on besides
/// the model). Shared by every job kind that runs Algorithm 1 probes.
std::string solver_options_id(const analysis::AnalysisOptions& options);

/// Canonical rendering of the model parameters except the resource p
/// (the warm-start chains vary p within one id).
std::string model_id_without_p(const selfish::AttackParams& params);

/// The part of an analysis job's identity that every point of one
/// warm-start chain shares: everything except the resource p. Grid points
/// with equal chain ids are ordered by p and seed each other's solves.
std::string analysis_chain_id(const AnalysisJob& job);

}  // namespace engine
