#include "analysis/errev.hpp"

#include <cstdint>

#include "obs/trace.hpp"

namespace analysis {

mdp::CounterRates counter_rates(const selfish::SelfishModel& model,
                                const mdp::Policy& policy) {
  return mdp::evaluate_policy_counters(model.mdp, policy);
}

double exact_errev(const selfish::SelfishModel& model,
                   const mdp::Policy& policy) {
  obs::Span span("analysis.exact_errev");
  const mdp::CounterRates rates = counter_rates(model, policy);
  span.attr("sweeps", serve::Json(static_cast<std::int64_t>(rates.sweeps)));
  span.attr("states",
            serve::Json(static_cast<std::int64_t>(rates.closed_states)));
  span.attr("residual", serve::Json(rates.residual));
  return rates.ratio();
}

}  // namespace analysis
