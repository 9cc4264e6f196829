// grid-paper: one op is one cold-store engine::Engine::run over the
// paper's default configurations (d, f) ∈ {(1,1), (2,1), (2,2), (3,2)},
// every γ ∈ {0, 0.25, 0.5, 0.75, 1} and p = 0, 0.05, …, 0.3 — 140 points
// in 20 warm-start chains on 2 engine threads. Every model fits in cache
// (d=3, f=2 streams ~10 MB per sweep), so the time goes to model builds,
// solve counts, chain scheduling and store writes: this is the workload
// on which a bytes-per-sweep gain should change nothing.
//
// The seed shuffles the job list. The engine plans chains from the job
// set alone, so the order must change neither the plan nor any answer.
// Set-up reads the reference brackets, builds the shuffled job list and
// opens the engine on an empty store. The Engine constructor only keeps
// its options, so setup_s here is nearly all benchmark code, well under a
// millisecond; no library change can move it much.
//
// The traced pass also takes one certified answer apart outside the op —
// the largest configuration at p=0.3, γ=0.5: build, analyze, exact ERRev
// and render, each in its own span, then one cold value iteration at the
// final β on 1 and on 2 threads, which keeps the CLI's multi-thread
// default covered.
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <tuple>

#include "analysis/errev.hpp"
#include "analysis/render.hpp"
#include "common.hpp"
#include "engine/engine.hpp"
#include "mdp/bellman_kernel.hpp"
#include "obs/trace.hpp"
#include "selfish/build.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr double kEpsilon = 1e-3;
constexpr int kL = 4;
constexpr int kThreads = 2;
constexpr std::pair<int, int> kConfigs[] = {{1, 1}, {2, 1}, {2, 2}, {3, 2}};

class GridPaper final : public Workload {
 public:
  explicit GridPaper(const Config& config) : config_(config) {}

  ~GridPaper() override {
    // Deleting a store takes ~0.8 s on discard-mounted disks and disturbs
    // whatever runs next, so the stores go once nothing is measured.
    for (const std::string& dir : store_dirs_) std::filesystem::remove_all(dir);
  }

  double setup() override {
    const double start = now_seconds();
    references_ = std::make_unique<References>(config_.data_dir);
    jobs_.clear();
    for (const selfish::AttackParams& params : grid_paper_universe()) {
      engine::AnalysisJob job;
      job.params = params;
      job.options.epsilon = kEpsilon;
      jobs_.push_back(job);
    }
    support::Rng rng(config_.seed);
    for (std::size_t i = jobs_.size(); i > 1; --i) {
      std::swap(jobs_[i - 1], jobs_[rng.next_below(i)]);
    }
    engine_ = open_engine();
    return now_seconds() - start;
  }

  int setup_reps() const override { return 9; }
  int traced_ops() const override { return 1; }

  PassResult run(const PassSpec& spec) override {
    PassResult pass;
    const ObsSnapshot before = ObsSnapshot::take();
    const double pass_start = now_seconds();
    for (int i = 0;; ++i) {
      if (spec.fixed_ops > 0 ? i >= spec.fixed_ops
                             : i > 0 && now_seconds() - pass_start >=
                                            spec.budget_s) {
        break;
      }
      one_op(spec.traced, pass);
    }
    pass.wall_s = now_seconds() - pass_start;
    const ObsSnapshot after = ObsSnapshot::take();
    pass.exact["mdp.solves"] =
        obs_delta(before, after, "selfish_mdp_solves_total");
    pass.exact["mdp.sweeps"] =
        obs_delta(before, after, "selfish_mdp_sweeps_total");
    pass.exact["engine.executed"] =
        obs_delta(before, after, "selfish_engine_executed_total");
    pass.exact["engine.cache_hits"] =
        obs_delta(before, after, "selfish_engine_cache_hits_total");
    // Both passes build the census models, so their sizes are compared
    // between passes like every other exact count.
    const std::map<std::pair<int, int>, double> sweep_mb =
        census(spec.traced, pass);
    if (spec.traced) {
      const obs::HistogramSnapshot sweeps =
          histogram_delta(before, after, "selfish_mdp_sweep_seconds");
      Metrics& m = pass.layer;
      m["mdp.sweep_busy_s"] = {sweeps.sum, "s"};
      m["engine.store_written_mb"] = {
          obs_delta(before, after, "selfish_engine_store_written_bytes_total") /
              1e6,
          "MB"};
      // Bytes each point's sweeps streamed, by its configuration's model.
      // p=0 models have two states and stream next to nothing.
      double swept_mb = 0.0;
      for (const engine::AnalysisJob& job : jobs_) {
        if (job.params.p > 0.0) {
          swept_mb += sweep_mb.at({job.params.d, job.params.f}) *
                      iterations_.at(References::key(
                          job.params.d, job.params.f, job.params.l,
                          job.params.gamma, job.params.p));
        }
      }
      m["mdp.achieved_gbps"] = {swept_mb / 1e3 / sweeps.sum, "GB/s"};
    }
    return pass;
  }

 private:
  /// An engine on a new, empty store directory.
  std::unique_ptr<engine::Engine> open_engine() {
    engine::EngineOptions options;
    options.cache_dir = config_.scratch_dir + "/grid-store-" +
                        std::to_string(store_dirs_.size());
    options.threads = kThreads;
    store_dirs_.push_back(options.cache_dir);
    return std::make_unique<engine::Engine>(options);
  }

  /// Runs the grid on the engine set up for it; every op after the first
  /// opens its own engine before its clock starts, so each op is cold.
  void one_op(bool traced, PassResult& pass) {
    if (engine_ == nullptr) engine_ = open_engine();
    ++pass.attempted;

    std::vector<engine::JobOutcome> outcomes;
    const double start = now_seconds();
    {
      std::optional<obs::Span> span;
      if (traced) span.emplace("bench.grid");
      outcomes = engine_->run(jobs_);
    }
    const double latency = now_seconds() - start;
    pass.latencies.add(latency);
    engine_.reset();

    // Contract checks on every point; per-chain solve time.
    std::string why;
    double busy = 0.0;
    std::map<std::tuple<int, int, double>, double> chain_seconds;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const selfish::AttackParams& params = jobs_[i].params;
      const engine::StoredResult& r = outcomes[i].result;
      double ref_lo = 0.0, ref_hi = 0.0;
      const bool has_ref = references_->find(params.d, params.f, params.l,
                                             params.gamma, params.p, ref_lo,
                                             ref_hi);
      const std::string point_why =
          outcomes[i].cached
              ? "cold-store run reported a cache hit"
              : check_answer(r.beta_lo, r.beta_hi, r.errev_of_policy,
                             kEpsilon, ref_lo, ref_hi, has_ref, 0.0);
      if (why.empty() && !point_why.empty()) {
        why = params.to_string() + ": " + point_why;
      }
      busy += r.seconds;
      chain_seconds[{params.d, params.f, params.gamma}] += r.seconds;
      pass.exact["analysis.search_steps"] += r.search_iterations;
      pass.exact["analysis.solver_iterations"] +=
          static_cast<double>(r.solver_iterations);
      iterations_[References::key(params.d, params.f, params.l, params.gamma,
                                  params.p)] =
          static_cast<double>(r.solver_iterations);
    }
    if (!why.empty()) {
      ++pass.failed;
      log_failure("grid-paper " + why);
    }
    if (traced) {
      double critical = 0.0;
      for (const auto& [chain, seconds] : chain_seconds) {
        critical = std::max(critical, seconds);
      }
      Metrics& m = pass.layer;
      m["engine.points_per_s"] = {static_cast<double>(jobs_.size()) / latency,
                                  "1/s"};
      m["engine.busy_frac"] = {busy / (kThreads * latency), "ratio"};
      m["engine.critical_chain_s"] = {critical, "s"};
    }
  }

  /// One certified answer on a built model, timed layer by layer, and
  /// checked like every grid point.
  void dissect_answer(const selfish::AttackParams& params,
                      const selfish::SelfishModel& model,
                      const mdp::BellmanKernel& kernel,
                      PassResult& pass) const {
    analysis::AnalysisOptions options;
    options.epsilon = kEpsilon;
    options.evaluate_exact_errev = false;
    analysis::AnalysisResult result;
    {
      obs::Span span("analysis.analyze");
      result = analysis::analyze(model, options);
    }
    double t = now_seconds();
    {
      obs::Span span("analysis.exact_errev");
      result.errev_of_policy = analysis::exact_errev(model, result.policy);
    }
    const double exact_errev_s = now_seconds() - t;
    t = now_seconds();
    std::string report;
    {
      obs::Span span("analysis.render");
      report = analysis::render_analysis_report(params, model, result, true);
    }
    const double render_s = now_seconds() - t;

    double ref_lo = 0.0, ref_hi = 0.0;
    const bool has_ref = references_->find(params.d, params.f, params.l,
                                           params.gamma, params.p, ref_lo,
                                           ref_hi);
    const std::string why =
        report.empty() ? "empty report"
                       : check_answer(result.beta_lo, result.beta_hi,
                                      result.errev_of_policy, kEpsilon,
                                      ref_lo, ref_hi, has_ref, 0.0);
    ++pass.attempted;
    if (!why.empty()) {
      ++pass.failed;
      log_failure("grid-paper answer " + params.to_string() + ": " + why);
    }

    double solve_s[2] = {0.0, 0.0};
    for (const int threads : {1, 2}) {
      t = now_seconds();
      const mdp::MeanPayoffResult solve =
          kernel.value_iteration(result.beta_lo, {}, nullptr, threads);
      solve_s[threads - 1] = now_seconds() - t;
      if (!solve.converged) {
        ++pass.failed;
        log_failure("grid-paper: cold value iteration did not converge");
      }
    }
    Metrics& m = pass.layer;
    m["analysis.exact_errev_s"] = {exact_errev_s, "s"};
    m["analysis.render_s"] = {render_s, "s"};
    m["analysis.bracket_width"] = {result.beta_hi - result.beta_lo, "ratio"};
    m["analysis.policy_gap"] = {result.errev_of_policy - result.beta_lo,
                                "ratio"};
    m["mdp.solve_1t_s"] = {solve_s[0], "s"};
    m["mdp.solve_2t_s"] = {solve_s[1], "s"};
  }

  /// The four configurations' models at p=0.3, γ=0.5, built once each
  /// outside the op: model and kernel build time, size and footprint. In
  /// a traced pass the largest also goes through dissect_answer.
  /// Returns each configuration's bytes per sweep in MB (the reachable
  /// model is the same for every p in (0, 1)).
  std::map<std::pair<int, int>, double> census(bool traced,
                                               PassResult& pass) const {
    std::map<std::pair<int, int>, double> per_config;
    double build_s = 0.0, kernel_s = 0.0, model_mb = 0.0, sweep_mb = 0.0;
    double states = 0.0, transitions = 0.0;
    for (const auto& [d, f] : kConfigs) {
      selfish::AttackParams params;
      params.p = 0.3;
      params.gamma = 0.5;
      params.d = d;
      params.f = f;
      params.l = kL;
      double t = now_seconds();
      std::optional<selfish::SelfishModel> model;
      {
        obs::Span span("selfish.build");
        model.emplace(selfish::build_model(params));
      }
      build_s += now_seconds() - t;
      t = now_seconds();
      std::optional<mdp::BellmanKernel> kernel;
      {
        obs::Span span("mdp.kernel_build");
        kernel.emplace(model->mdp);
      }
      kernel_s += now_seconds() - t;
      states += model->mdp.num_states();
      transitions += static_cast<double>(model->mdp.num_transitions());
      model_mb = std::max(
          model_mb,
          static_cast<double>(model->mdp.memory_bytes() +
                              kernel->memory_bytes()) /
              1e6);
      per_config[{d, f}] =
          static_cast<double>(kernel->bytes_per_sweep()) / 1e6;
      sweep_mb = std::max(sweep_mb, per_config[{d, f}]);
      if (traced && std::pair{d, f} == kConfigs[std::size(kConfigs) - 1]) {
        dissect_answer(params, *model, *kernel, pass);
      }
    }
    Metrics& m = pass.layer;
    m["selfish.build_s"] = {build_s, "s"};
    m["mdp.kernel_build_s"] = {kernel_s, "s"};
    m["mdp.model_mb"] = {model_mb, "MB"};
    m["mdp.bytes_per_sweep_mb"] = {sweep_mb, "MB"};
    pass.exact["selfish.states"] = states;
    pass.exact["selfish.transitions"] = transitions;
    pass.exact["mdp.bytes_per_sweep_mb"] = sweep_mb;
    return per_config;
  }

  Config config_;
  std::unique_ptr<References> references_;
  std::vector<engine::AnalysisJob> jobs_;
  std::unique_ptr<engine::Engine> engine_;  ///< For the next op.
  std::map<std::string, double> iterations_;  ///< Per point, last op.
  std::vector<std::string> store_dirs_;  ///< Every op's store, this run.
};

}  // namespace

std::vector<selfish::AttackParams> grid_paper_universe() {
  std::vector<selfish::AttackParams> points;
  for (const auto& [d, f] : kConfigs) {
    for (const double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      for (int step = 0; step <= 6; ++step) {
        selfish::AttackParams params;
        params.d = d;
        params.f = f;
        params.l = kL;
        params.gamma = gamma;
        params.p = 0.05 * step;
        points.push_back(params);
      }
    }
  }
  return points;
}

std::unique_ptr<Workload> make_grid_paper(const Config& config) {
  return std::make_unique<GridPaper>(config);
}

}  // namespace perfbench
