// Unified, dependency-free metrics for every hot layer of the system:
// counters, gauges, and fixed-bucket histograms behind one process-global
// registry, exposed in Prometheus text format (the `metrics` admin kind
// of the analysis service, `--metrics-out` on the benches).
//
// Design constraints, in order:
//
//   1. Instrumentation must never serialize the code it observes. Counter
//      increments go to cache-line-padded *shards* indexed by a
//      thread-local id (a sum over shards reads the total); histogram and
//      gauge updates are single relaxed atomics. No instrument-path
//      operation takes a lock — the registry mutex guards registration
//      only, which happens once per metric per process.
//   2. Observability must be byte-invariant: nothing in this module feeds
//      back into any artifact (CSV, rendered report, served body), and
//      `engine::JobKey` never sees a metric field. CI pins artifacts
//      identical with metrics on and off.
//   3. Two switch positions. On (default). Off at runtime (SELFISH_OBS=0
//      in the environment, or obs::set_enabled(false)): instrument calls
//      early-return on one relaxed flag load.
//
// Naming scheme: selfish_<subsystem>_<name>[_<unit>], subsystems mdp |
// engine | net | serve. Counters end in _total; histograms carry their
// unit (_seconds, _gbps); gauges name the instantaneous quantity.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace obs {

/// A point-in-time copy of one histogram, with the percentile math the
/// serving layer and the benches report from. Bucket i counts values in
/// (bounds[i-1], bounds[i]]; counts has one extra slot for the +Inf
/// overflow bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< Size bounds.size() + 1.
  double sum = 0.0;
  std::uint64_t count = 0;

  /// The q-quantile (q in [0,1]) by linear interpolation inside the
  /// containing bucket (lower edge 0 for the first bucket — all
  /// instrumented quantities are non-negative). Values in the overflow
  /// bucket clamp to the last finite bound. NaN when empty (an absent
  /// quantile must not masquerade as a real 0).
  double quantile(double q) const;
};

/// `count` exponentially spaced upper bounds: start, start*factor, ...
std::vector<double> exponential_buckets(double start, double factor,
                                        int count);

/// Runtime switch, initialized from the SELFISH_OBS environment variable
/// ("0"/"false" = off); instrument paths check it with one relaxed load.
bool enabled();
void set_enabled(bool on);

namespace detail {

extern std::atomic<bool> g_enabled;

inline bool on() { return g_enabled.load(std::memory_order_relaxed); }

inline constexpr int kShards = 16;

struct alignas(64) Shard {
  std::atomic<std::uint64_t> value{0};
};

/// Stable per-thread shard index; threads round-robin over the shards so
/// concurrent increments of one counter touch different cache lines.
unsigned shard_index();

}  // namespace detail

/// Monotonic counter. add() is wait-free and contention-free across
/// threads (sharded); value() sums the shards (reads may be mid-update —
/// monotonic but not a linearizable snapshot, which is fine for metrics).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    if (!detail::on()) return;
    shards_[detail::shard_index()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const detail::Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() {
    for (detail::Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::array<detail::Shard, detail::kShards> shards_;
};

/// Last-written instantaneous value (set/add/max_of), e.g. LRU residency
/// or a high-water mark. One atomic: gauges update rarely.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) {
    if (!detail::on()) return;
    value_.store(v, std::memory_order_relaxed);
  }

  void add(std::int64_t delta) {
    if (!detail::on()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Raises the gauge to `v` if larger (high-water marks).
  void max_of(std::int64_t v) {
    if (!detail::on()) return;
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v,
                                         std::memory_order_relaxed)) {
    }
  }

  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: observe() is a binary search plus two relaxed
/// atomic adds — safe inside parallel sweeps. Percentiles come from
/// snapshot().quantile().
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v);

  HistogramSnapshot snapshot() const;

  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<double> sum_{0.0};
};

/// The process-global metric registry. Registration (the only locked
/// operation) is idempotent: asking for an existing (name, labels) pair
/// returns the same handle, so instrumented code can hold references in
/// function-local statics. Handles stay valid for the process lifetime.
class Registry {
 public:
  /// `labels` is the raw Prometheus label body, e.g. `kind="point"`;
  /// empty for an unlabeled series. Re-registering a name with a
  /// different metric type throws support-style (std::runtime_error).
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& labels = "");
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds,
                       const std::string& labels = "");

  /// Prometheus text exposition: families sorted by name, series within a
  /// family sorted by label body — deterministic for tests.
  std::string expose() const;

  /// Zeroes every value, keeps every registration (tests, per-phase
  /// bench deltas). Not safe concurrently with instrument calls that
  /// must not be lost — fine for its users.
  void reset_values();

 private:
  enum class Type : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Series {
    std::string name;
    std::string labels;
    Type type = Type::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string help;
    Type type = Type::kCounter;
  };

  Series& find_or_create(const std::string& name, const std::string& help,
                         const std::string& labels, Type type);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Series>> series_;  ///< Stable addresses.
  // Family metadata keyed by metric name (shared across label values).
  std::vector<std::pair<std::string, Family>> families_;
};

/// The process-global registry (every instrumented subsystem and the
/// exposition endpoints share it).
Registry& registry();

// Convenience accessors on the global registry.
Counter& counter(const std::string& name, const std::string& help,
                 const std::string& labels = "");
Gauge& gauge(const std::string& name, const std::string& help,
             const std::string& labels = "");
Histogram& histogram(const std::string& name, const std::string& help,
                     std::vector<double> bounds,
                     const std::string& labels = "");

/// Prometheus text exposition of the global registry.
std::string prometheus_text();

}  // namespace obs
