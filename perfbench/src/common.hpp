// Shared plumbing of the end-to-end benchmark driver: run configuration,
// metric tables, per-pass outcomes, obs-registry snapshots, the reference
// brackets the answer checks compare against, and the workload interface.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "selfish/params.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;     ///< The benchmark's own directory (references).
  std::string scratch_dir;  ///< Per-run writable directory in the checkout.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// How long one pass runs: until `budget_s` of wall time has gone by
/// (untraced timed pass), or exactly `fixed_ops` ops (the two passes of a
/// traced run, whose counts must repeat exactly).
struct PassSpec {
  double budget_s = 0.0;
  int fixed_ops = 0;
  bool traced = false;
};

/// Op latencies in log-spaced buckets 0.1% wide from 1 µs to ~3 h, so
/// memory stays constant however many ops a run completes: peak_rss_mb
/// must not grow with throughput through the benchmark's own records.
class LatencyLog {
 public:
  LatencyLog();
  void add(double seconds);
  void merge(const LatencyLog& other);
  std::uint64_t count() const { return count_; }
  /// Nearest-rank quantile (q in [0, 1]) as its bucket's geometric
  /// midpoint; 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// What one pass produced. `layer` holds per-layer metrics measured by
/// the workload itself; `exact` holds the counts that must repeat exactly
/// for a given seed and op count.
struct PassResult {
  LatencyLog latencies;  ///< One entry per completed op, in seconds.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;  ///< First op start to last op end.
  Metrics layer;
  std::map<std::string, double> exact;
};

/// One workload: a repeatable set-up and passes of timed ops against it.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Sets the workload up from scratch; the last set-up stays live for the
  /// next pass. Returns its wall time in seconds.
  virtual double setup() = 0;
  virtual PassResult run(const PassSpec& spec) = 0;
  /// Ops per pass of a traced run.
  virtual int traced_ops() const = 0;
  /// Set-ups per run whose median is reported as setup_s.
  virtual int setup_reps() const = 0;
};

std::unique_ptr<Workload> make_grid_paper(const Config& config);
std::unique_ptr<Workload> make_serve_mix(const Config& config);
std::unique_ptr<Workload> make_net_replay(const Config& config);

/// Every point each workload may ask for a certified answer at, as
/// (d, f, l, γ, p) — the points the reference brackets must cover.
std::vector<selfish::AttackParams> grid_paper_universe();
std::vector<selfish::AttackParams> serve_mix_point_universe();

/// Reports a failed op on stderr (the result line stays on stdout).
void log_failure(const std::string& what);

// ------------------------------------------------------------ utilities

double now_seconds();  ///< Steady clock.
/// Nearest-rank median.
double median(std::vector<double> values);
/// Peak resident set of this process so far (VmHWM), in MB.
double peak_rss_mb();

/// A parsed copy of the obs registry's Prometheus exposition. Reading the
/// text (instead of asking the registry for handles) can never register a
/// series as a side effect.
struct ObsSnapshot {
  std::map<std::string, double> series;  ///< "name{labels}" -> value.

  static ObsSnapshot take();
  /// Sum over every series of `name` (any labels).
  double total(const std::string& name) const;
};
/// after - before, summed over every label set of a counter/gauge.
double obs_delta(const ObsSnapshot& before, const ObsSnapshot& after,
                 const std::string& name);
/// The histogram of observations made between two snapshots, merged over
/// every label set of `name`.
obs::HistogramSnapshot histogram_delta(const ObsSnapshot& before,
                                       const ObsSnapshot& after,
                                       const std::string& name);

/// Certified brackets recorded with the benchmark, keyed by point.
class References {
 public:
  /// Reads <data_dir>/reference/brackets.txt; throws when missing.
  explicit References(const std::string& data_dir);
  /// The recorded [lo, hi] for a point; false when none is recorded.
  bool find(int d, int f, int l, double gamma, double p, double& lo,
            double& hi) const;
  static std::string key(int d, int f, int l, double gamma, double p);

 private:
  std::map<std::string, std::pair<double, double>> brackets_;
};

/// The contract of a certified answer [lo, hi] with a strategy worth
/// `policy_errev`, at precision `epsilon`. `slack` absorbs rounding when
/// the numbers were parsed from a rendered report. Returns an empty
/// string when every check holds, else the first violation.
std::string check_answer(double lo, double hi, double policy_errev,
                         double epsilon, double ref_lo, double ref_hi,
                         bool has_ref, double slack);

}  // namespace perfbench
