// net-replay: set-up is net::prepare_scenarios for "single-optimal" at
// d=3, f=2 — Algorithm 1 prepares the attacker's strategy — at two
// points: delay 0 with direct propagation, and delay 2 s with gossip.
// One op is one net::run_scenario of 250,000 blocks on one harness
// thread; two of every three ops replay the delay-0 point (the
// correctness anchor) and the third the gossip point. The two points
// differ in cost by ~12%, so an even split would put the median op in the
// gap between them, where it jumps with the odd op. It is the only path
// through the sim/net strategy replay, which reads the Mdp a compact
// representation would rewrite.
//
// Checks: every op must count blocks and give the attacker a share in
// (0, 1). Gossip ops need not converge: with a 2 s delay, two honest
// miners may end a correct run on rival tips of equal height, each
// keeping the one it saw first (seen once in ~660 gossip ops). The
// delay-0 point's attacker share, pooled over all its ops in the pass,
// must lie within 1% of the predicted ERRev (the test_net_validation
// tolerance). One op's share has a relative standard deviation of ~0.5%
// at this length, so a per-op 1% band would fail a correct simulator
// about once in twenty ops; pooled over the 32 delay-0 ops of a traced
// pass, or the ~125 of a 20 s run (8 M blocks or more), the band is more
// than ten standard deviations wide.
// When the pooled share misses, every delay-0 op of the pass counts as
// failed.
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "engine/engine.hpp"
#include "net/scenario.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr double kEpsilon = 1e-3;
constexpr std::uint64_t kBlocks = 250'000;

class NetReplay final : public Workload {
 public:
  explicit NetReplay(const Config& config) : config_(config) {}

  double setup() override {
    const double start = now_seconds();
    net::ScenarioOptions options;
    options.p = 0.3;
    options.gamma = 0.5;
    options.d = 3;
    options.f = 2;
    options.l = 4;
    options.blocks = kBlocks;
    std::vector<net::Scenario> scenarios =
        net::make_scenarios("single-optimal", options);
    options.delay = 2.0;
    options.propagation = net::PropagationMode::kGossip;
    for (net::Scenario& s : net::make_scenarios("single-optimal", options)) {
      scenarios.push_back(std::move(s));
    }
    engine::EngineOptions engine_options;
    engine_options.threads = 2;
    engine::Engine engine(engine_options);
    {
      obs::Span span("net.prepare");
      prepared_ = net::prepare_scenarios(scenarios, kEpsilon, engine);
    }
    if (prepared_.size() != 2 ||
        prepared_[0].scenario.topology.delay(0, 1) != 0.0) {
      throw std::runtime_error("net-replay: expected a delay-0 and a gossip "
                               "scenario");
    }
    prepare_s_ = now_seconds() - start;
    return prepare_s_;
  }

  int setup_reps() const override { return 5; }
  int traced_ops() const override { return 48; }

  PassResult run(const PassSpec& spec) override {
    PassResult pass;
    std::uint64_t events = 0, queue_high_water = 0;
    // The delay-0 point's canonical blocks, pooled over the pass.
    std::uint64_t anchor_ops = 0, anchor_attacker = 0, anchor_counted = 0;
    const net::PreparedScenario& anchor = prepared_[0];
    const double pass_start = now_seconds();
    for (std::uint64_t op = 0;; ++op) {
      if (spec.fixed_ops > 0
              ? op >= static_cast<std::uint64_t>(spec.fixed_ops)
              : now_seconds() - pass_start >= spec.budget_s) {
        break;
      }
      const bool on_anchor = op % 3 != 2;
      const net::PreparedScenario& point = prepared_[on_anchor ? 0 : 1];
      const std::uint64_t seed =
          support::Rng::for_stream(config_.seed, op).next_u64();
      ++pass.attempted;
      const double start = now_seconds();
      std::optional<net::NetworkResult> result;
      std::string why;
      try {
        std::optional<obs::Span> span;
        if (spec.traced) span.emplace("bench.net_run");
        result.emplace(net::run_scenario(point, seed));
      } catch (const std::exception& error) {
        why = error.what();
      }
      const double latency = now_seconds() - start;
      if (result.has_value()) {
        pass.latencies.add(latency);
        events += result->events;
        queue_high_water = std::max(queue_high_water, result->queue_high_water);
        const std::uint64_t attacker = attacker_blocks(point, *result);
        why = check(*result, attacker);
        if (on_anchor) {
          ++anchor_ops;
          anchor_attacker += attacker;
          anchor_counted += result->counted;
        }
      }
      if (!why.empty()) {
        ++pass.failed;
        log_failure("net-replay " + point.scenario.variant + " seed " +
                    std::to_string(seed) + ": " + why);
      }
    }
    pass.wall_s = now_seconds() - pass_start;

    const double share = anchor_counted > 0
                             ? static_cast<double>(anchor_attacker) /
                                   static_cast<double>(anchor_counted)
                             : 0.0;
    const double predicted = anchor.predicted_errev;
    if (!(std::fabs(share - predicted) <= 0.01 * predicted)) {
      pass.failed += anchor_ops;
      log_failure("net-replay " + anchor.scenario.variant +
                  ": attacker share " + std::to_string(share) + " over " +
                  std::to_string(anchor_ops) + " ops outside 1% of " +
                  "predicted ERRev " + std::to_string(predicted));
    }

    pass.exact["net.events"] = static_cast<double>(events);
    if (spec.traced) {
      Metrics& m = pass.layer;
      m["net.events_per_s"] = {static_cast<double>(events) / pass.wall_s,
                               "1/s"};
      m["net.run_p50_ms"] = {pass.latencies.quantile(0.5) * 1e3, "ms"};
      m["net.queue_high_water"] = {static_cast<double>(queue_high_water),
                                   "count"};
      m["net.prepare_s"] = {prepare_s_, "s"};
    }
    return pass;
  }

 private:
  static std::uint64_t attacker_blocks(const net::PreparedScenario& point,
                                       const net::NetworkResult& result) {
    std::uint64_t blocks = 0;
    for (std::size_t m = 0; m < point.scenario.miners.size(); ++m) {
      if (point.scenario.miners[m].kind != net::MinerSpec::Kind::kHonest) {
        blocks += result.canonical[m];
      }
    }
    return blocks;
  }

  static std::string check(const net::NetworkResult& result,
                           std::uint64_t attacker) {
    if (result.counted == 0 || attacker == 0 || attacker >= result.counted) {
      return "no attacker share measured";
    }
    return "";
  }

  Config config_;
  std::vector<net::PreparedScenario> prepared_;
  double prepare_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_net_replay(const Config& config) {
  return std::make_unique<NetReplay>(config);
}

}  // namespace perfbench
