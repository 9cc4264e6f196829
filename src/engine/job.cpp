#include "engine/job.hpp"

#include <cinttypes>
#include <cstdio>

namespace engine {

std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t basis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = basis;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string canonical_double(double value) {
  // %.17g round-trips every finite double; the C locale of printf keeps
  // the rendering stable across environments.
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JobKey::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash);
  return buffer;
}

/// SolveOptions::threads and ::use_kernel are deliberately absent: the
/// kernel is pinned bit-identical to the legacy path at any thread count
/// (test_mdp_kernel), so neither knob can change a stored result.
/// AnalysisOptions::evaluate_exact_errev is absent too: it has no effect.
/// The `sweep=ordered` token is a constant: Gauss–Seidel sweeps in state
/// order only, and the token stays so keys written by earlier builds
/// (which also offered a red-black order) still address their entries.
std::string solver_options_id(const analysis::AnalysisOptions& options) {
  std::string id = "eps=" + canonical_double(options.epsilon);
  id += "|solver=" + mdp::to_string(options.solver.method);
  id += "|sweep=ordered";
  id += "|tol=" + canonical_double(options.solver.mean_payoff.tol);
  id += "|maxit=" + std::to_string(options.solver.mean_payoff.max_iterations);
  id += "|tau=" + canonical_double(options.solver.mean_payoff.tau);
  return id;
}

std::string model_id_without_p(const selfish::AttackParams& params) {
  std::string id = "gamma=" + canonical_double(params.gamma);
  id += "|d=" + std::to_string(params.d);
  id += "|f=" + std::to_string(params.f);
  id += "|l=" + std::to_string(params.l);
  id += "|burn=" + std::string(params.burn_lost_races ? "1" : "0");
  return id;
}

std::string analysis_chain_id(const AnalysisJob& job) {
  return "analysis/v" + std::to_string(kCodeVersionSalt) + "|" +
         model_id_without_p(job.params) + "|" + solver_options_id(job.options);
}

JobKey analysis_job_key(const AnalysisJob& job, const JobKey* warm_parent) {
  JobKey key;
  key.canonical = analysis_chain_id(job);
  key.canonical += "|p=" + canonical_double(job.params.p);
  key.canonical +=
      "|warm=" + (warm_parent == nullptr ? std::string("cold")
                                         : warm_parent->hex());
  key.hash = fnv1a64(key.canonical.data(), key.canonical.size());
  return key;
}

}  // namespace engine
