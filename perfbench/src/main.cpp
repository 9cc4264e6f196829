// perfbench_driver — the end-to-end benchmark of certified answers.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --data DIR --scratch DIR
//   perfbench_driver --record W --data DIR     (prints reference brackets)
//
// --trace 0: the workload is set up several times (median = setup_s), then
// ops run untraced for S seconds; the end-to-end metrics are printed.
// --trace 1: a fixed number of ops runs untraced, then the same ops run
// again with the NDJSON trace sink open and the driver's own spans around
// every public call; the per-layer metrics are printed, including the
// spans folded per layer, and the counts that must repeat exactly are
// compared between the two passes. The last stdout line is the result
// object; everything else goes to stderr.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "common.hpp"
#include "fold.hpp"
#include "host.hpp"
#include "obs/trace.hpp"
#include "selfish/build.hpp"
#include "support/parallel.hpp"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run prints, on every workload (0 where
/// a layer does not take part). BENCHMARK.json lists the same names.
constexpr LayerMetric kLayerMetrics[] = {
    {"selfish.build_s", "s"},         {"selfish.states", "count"},
    {"selfish.transitions", "count"}, {"mdp.solves", "count"},
    {"mdp.sweeps", "count"},          {"mdp.bytes_per_sweep_mb", "MB"},
    {"mdp.sweep_busy_s", "s"},        {"mdp.achieved_gbps", "GB/s"},
    {"mdp.bw_frac", "ratio"},         {"mdp.model_mb", "MB"},
    {"mdp.kernel_build_s", "s"},      {"mdp.solve_1t_s", "s"},
    {"mdp.solve_2t_s", "s"},          {"analysis.search_steps", "count"},
    {"analysis.solver_iterations", "count"},
    {"analysis.exact_errev_s", "s"},  {"analysis.render_s", "s"},
    {"analysis.bracket_width", "ratio"},
    {"analysis.policy_gap", "ratio"}, {"engine.points_per_s", "1/s"},
    {"engine.executed", "count"},     {"engine.cache_hits", "count"},
    {"engine.store_written_mb", "MB"},
    {"engine.busy_frac", "ratio"},    {"engine.critical_chain_s", "s"},
    {"serve.rtt_p50_ms", "ms"},       {"serve.tail_ms", "ms"},
    {"serve.tail_q", "ratio"},        {"serve.samples", "count"},
    {"serve.server_p50_ms", "ms"},    {"serve.wait_ms", "ms"},
    {"serve.lru_hit_ratio", "ratio"}, {"serve.store_hits", "count"},
    {"serve.solves", "count"},        {"serve.coalesced", "count"},
    {"serve.busy", "count"},          {"fleet.executions", "count"},
    {"fleet.waits", "count"},         {"fleet.takeovers", "count"},
    {"net.events", "count"},          {"net.events_per_s", "1/s"},
    {"net.run_p50_ms", "ms"},         {"net.queue_high_water", "count"},
    {"net.prepare_s", "s"},           {"host.triad_gbps", "GB/s"},
    {"host.triad_mb", "MB"},          {"host.l3_mb", "MB"},
    {"host.nproc", "count"},          {"host.load1_start", "load"},
    {"host.load1_end", "load"},      {"obs.trace_overhead", "ratio"},
    {"check.fail_ratio", "ratio"},
};

/// Layers the span fold reports (span.<layer>.{calls,total_s,self_s}).
const std::vector<std::string> kSpanLayers = {
    "bench", "client", "selfish", "mdp", "analysis", "engine", "serve", "net"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --data DIR --scratch DIR\n"
               "       perfbench_driver --record W --data DIR\n";
  std::exit(2);
}

std::unique_ptr<Workload> make_workload(const Config& config) {
  if (config.workload == "grid-paper") return make_grid_paper(config);
  if (config.workload == "serve-mix") return make_serve_mix(config);
  if (config.workload == "net-replay") return make_net_replay(config);
  usage("unknown workload '" + config.workload + "'");
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void print_host(const HostRecord& host) {
  std::cerr << "perfbench: host {\"nproc\": " << host.nproc
            << ", \"cpu_model\": \"" << escape(host.cpu_model)
            << "\", \"l3_mb\": " << number(host.l3_mb)
            << ", \"triad_array_total_mb\": " << number(host.triad_mb)
            << ", \"triad_gbps\": " << number(host.triad_gbps)
            << ", \"load1_start\": " << number(host.load1_start)
            << ", \"load1_end\": " << number(host.load1_end) << "}"
            << std::endl;
}

/// Busy-waits, untimed, so every set-up starts on a CPU that has just been
/// busy, as each op does. Measured on a shared 4-vCPU VM: sub-millisecond
/// set-ups run back to back read ~0.16 ms in some processes and ~0.27 ms
/// in others (a stand-alone strtod loop shows the same split, so it is
/// the host, not the library), which makes the median over runs flip
/// between the two; 100 ms idle gaps split them 0.26 / 0.36 ms. After
/// 100 ms of busy time the per-process medians of 9 set-ups read
/// 0.25-0.28 ms in 10 of 10 processes. The wait adds nothing to setup_s.
void spin(double seconds) {
  const double until = now_seconds() + seconds;
  volatile std::uint64_t sink = 0;
  while (now_seconds() < until) sink = sink + 1;
}

int run_untraced(const Config& config, Workload& workload, HostRecord& host) {
  std::vector<double> setups;
  for (int i = 0; i < workload.setup_reps(); ++i) {
    spin(0.1);
    setups.push_back(workload.setup());
  }
  PassSpec spec;
  spec.budget_s = config.seconds;
  const PassResult pass = workload.run(spec);
  const double rss = peak_rss_mb();  // before the triad's arrays exist

  measure_triad(host);
  host.load1_end = load1();
  print_host(host);
  std::cerr << "perfbench: setups_s";
  for (const double s : setups) std::cerr << " " << number(s);
  std::cerr << std::endl;

  Metrics metrics;
  metrics["setup_s"] = {median(setups), "s"};
  metrics["ops_per_s"] = {
      static_cast<double>(pass.latencies.count()) / pass.wall_s, "1/s"};
  metrics["p50_ms"] = {pass.latencies.quantile(0.5) * 1e3, "ms"};
  metrics["peak_rss_mb"] = {rss, "MB"};
  const bool correct = pass.attempted > 0 && pass.failed == 0;
  print_result(correct, pass.attempted, pass.failed, metrics);
  return 0;
}

int run_traced(const Config& config, Workload& workload, HostRecord& host) {
  PassSpec spec;
  spec.fixed_ops = workload.traced_ops();
  workload.setup();
  const PassResult plain = workload.run(spec);

  workload.setup();
  const std::string trace_path = config.scratch_dir + "/trace.ndjson";
  obs::open_trace(trace_path);
  spec.traced = true;
  const PassResult traced = workload.run(spec);
  obs::close_trace();

  // Counts that must repeat exactly: same seed, same ops, two passes.
  std::uint64_t mismatches = 0;
  for (const auto& [name, value] : traced.exact) {
    const auto it = plain.exact.find(name);
    if (it != plain.exact.end() && it->second != value) {
      ++mismatches;
      log_failure("exact count " + name + " differs between passes: " +
                  number(it->second) + " vs " + number(value));
    }
  }

  measure_triad(host);
  host.load1_end = load1();
  print_host(host);

  Metrics metrics;
  for (const LayerMetric& metric : kLayerMetrics) {
    metrics[metric.name] = {0.0, metric.unit};
  }
  for (const auto& [name, metric] : traced.layer) metrics[name] = metric;
  for (const auto& [name, value] : traced.exact) {
    metrics[name].value = value;
  }
  for (const auto& [name, metric] : fold_trace(trace_path, kSpanLayers)) {
    metrics[name] = metric;
  }
  const double gbps = metrics["mdp.achieved_gbps"].value;
  metrics["mdp.bw_frac"].value =
      std::isfinite(gbps) && host.triad_gbps > 0 ? gbps / host.triad_gbps : 0;
  metrics["host.triad_gbps"].value = host.triad_gbps;
  metrics["host.triad_mb"].value = host.triad_mb;
  metrics["host.l3_mb"].value = host.l3_mb;
  metrics["host.nproc"].value = host.nproc;
  metrics["host.load1_start"].value = host.load1_start;
  metrics["host.load1_end"].value = host.load1_end;
  metrics["obs.trace_overhead"].value =
      traced.latencies.quantile(0.5) / plain.latencies.quantile(0.5);

  const std::uint64_t attempted = plain.attempted + traced.attempted;
  const std::uint64_t failed = plain.failed + traced.failed + mismatches;
  metrics["check.fail_ratio"].value =
      static_cast<double>(failed) / static_cast<double>(attempted);
  print_result(attempted > 0 && failed == 0, attempted, failed, metrics);
  return 0;
}

/// Prints "d f l gamma p lo hi" for every point a workload may check,
/// each from a cold, stand-alone Algorithm 1 run.
int record(const std::string& workload) {
  std::vector<selfish::AttackParams> points;
  if (workload == "grid-paper") points = grid_paper_universe();
  else if (workload == "serve-mix") points = serve_mix_point_universe();
  else usage("no reference points for '" + workload + "'");
  std::vector<std::string> lines(points.size());
  support::parallel_for(points.size(), 2, [&](std::size_t i) {
    const selfish::AttackParams& params = points[i];
    const selfish::SelfishModel model = selfish::build_model(params);
    analysis::AnalysisOptions options;
    options.evaluate_exact_errev = false;
    const analysis::AnalysisResult result = analysis::analyze(model, options);
    char buffer[160];
    std::snprintf(buffer, sizeof buffer, "%d %d %d %.4f %.4f %.17g %.17g",
                  params.d, params.f, params.l, params.gamma, params.p,
                  result.beta_lo, result.beta_hi);
    lines[i] = buffer;
  });
  for (const std::string& line : lines) std::cout << line << "\n";
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  std::string record_workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = config.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (flag == "--data") {
        config.data_dir = value;
      } else if (flag == "--scratch") {
        config.scratch_dir = value;
      } else if (flag == "--record") {
        record_workload = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!record_workload.empty()) return record(record_workload);
  if (config.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      config.data_dir.empty() || config.scratch_dir.empty()) {
    usage("missing arguments");
  }
  try {
    std::filesystem::create_directories(config.scratch_dir);
    HostRecord host = probe_host();
    std::unique_ptr<Workload> workload = make_workload(config);
    return config.trace ? run_traced(config, *workload, host)
                        : run_untraced(config, *workload, host);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_driver: " << error.what() << std::endl;
    return 1;
  }
}
