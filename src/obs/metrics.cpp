#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace obs {

namespace {

// Shortest-round-trip-ish float rendering shared by exposition and tests;
// %.10g keeps bucket bounds like 0.005 exact and is deterministic across
// platforms for the values we emit.
[[maybe_unused]] std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

double HistogramSnapshot::quantile(double q) const {
  // NaN, not 0.0: an empty histogram has no quantiles, and 0.0 would be
  // indistinguishable from a real zero-latency percentile in reports.
  if (count == 0 || bounds.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target observation (1-based, ceil as Prometheus does).
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) {
      // Overflow bucket: no finite upper edge, clamp to the last bound.
      return bounds.back();
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    const double fraction =
        (rank - before) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * std::min(std::max(fraction, 0.0), 1.0);
  }
  return bounds.back();
}

std::vector<double> exponential_buckets(double start, double factor,
                                        int count) {
  if (!(start > 0.0) || !(factor > 1.0) || count < 1) {
    throw std::runtime_error("obs: exponential_buckets requires start > 0, "
                             "factor > 1, count >= 1");
  }
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

namespace detail {

namespace {

bool enabled_from_env() {
  const char* raw = std::getenv("SELFISH_OBS");
  if (raw == nullptr) return true;
  return !(std::strcmp(raw, "0") == 0 || std::strcmp(raw, "false") == 0 ||
           std::strcmp(raw, "off") == 0);
}

}  // namespace

std::atomic<bool> g_enabled{enabled_from_env()};

unsigned shard_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<unsigned>(kShards);
  return index;
}

}  // namespace detail

bool enabled() { return detail::on(); }

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::runtime_error("obs: histogram needs at least one bucket bound");
  }
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double v) {
  if (!detail::on()) return;
  // First bound >= v; past-the-end lands in the +Inf overflow slot.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  double seen = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(seen, seen + v,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
    snap.count += snap.counts[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const std::string& labels) {
  Series& series = find_or_create(name, help, labels, Type::kCounter);
  return *series.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const std::string& labels) {
  Series& series = find_or_create(name, help, labels, Type::kGauge);
  return *series.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help,
                               std::vector<double> bounds,
                               const std::string& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Series>& existing : series_) {
    if (existing->name == name && existing->labels == labels) {
      if (existing->type != Type::kHistogram) {
        throw std::runtime_error("obs: metric '" + name +
                                 "' re-registered with a different type");
      }
      return *existing->histogram;
    }
  }
  auto series = std::make_unique<Series>();
  series->name = name;
  series->labels = labels;
  series->type = Type::kHistogram;
  series->histogram = std::make_unique<Histogram>(std::move(bounds));
  Series& ref = *series;
  series_.push_back(std::move(series));
  bool family_seen = false;
  for (auto& [family_name, family] : families_) {
    if (family_name == name) {
      family_seen = true;
      break;
    }
  }
  if (!family_seen) {
    families_.emplace_back(name, Family{help, Type::kHistogram});
  }
  return *ref.histogram;
}

Registry::Series& Registry::find_or_create(const std::string& name,
                                           const std::string& help,
                                           const std::string& labels,
                                           Type type) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Series>& existing : series_) {
    if (existing->name == name && existing->labels == labels) {
      if (existing->type != type) {
        throw std::runtime_error("obs: metric '" + name +
                                 "' re-registered with a different type");
      }
      return *existing;
    }
  }
  auto series = std::make_unique<Series>();
  series->name = name;
  series->labels = labels;
  series->type = type;
  if (type == Type::kCounter) {
    series->counter = std::make_unique<Counter>();
  } else {
    series->gauge = std::make_unique<Gauge>();
  }
  Series& ref = *series;
  series_.push_back(std::move(series));
  bool family_seen = false;
  for (auto& [family_name, family] : families_) {
    if (family_name == name) {
      family_seen = true;
      break;
    }
  }
  if (!family_seen) {
    families_.emplace_back(name, Family{help, type});
  }
  return ref;
}

std::string Registry::expose() const {
  std::lock_guard<std::mutex> lock(mutex_);

  // Sort family names, then series within a family by label body, so the
  // exposition is deterministic regardless of registration order.
  std::vector<std::pair<std::string, Family>> families = families_;
  std::sort(families.begin(), families.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string out;
  out.reserve(4096);
  for (const auto& [name, family] : families) {
    std::vector<const Series*> members;
    for (const std::unique_ptr<Series>& series : series_) {
      if (series->name == name) members.push_back(series.get());
    }
    std::sort(members.begin(), members.end(),
              [](const Series* a, const Series* b) {
                return a->labels < b->labels;
              });

    out += "# HELP ";
    out += name;
    out += " ";
    out += family.help;
    out += "\n# TYPE ";
    out += name;
    out += " ";
    switch (family.type) {
      case Type::kCounter: out += "counter"; break;
      case Type::kGauge: out += "gauge"; break;
      case Type::kHistogram: out += "histogram"; break;
    }
    out += "\n";

    for (const Series* series : members) {
      const std::string& labels = series->labels;
      const auto emit_scalar = [&](const std::string& value) {
        out += name;
        if (!labels.empty()) {
          out += "{";
          out += labels;
          out += "}";
        }
        out += " ";
        out += value;
        out += "\n";
      };
      switch (series->type) {
        case Type::kCounter:
          emit_scalar(std::to_string(series->counter->value()));
          break;
        case Type::kGauge:
          emit_scalar(std::to_string(series->gauge->value()));
          break;
        case Type::kHistogram: {
          const HistogramSnapshot snap = series->histogram->snapshot();
          std::string prefix = labels;
          if (!prefix.empty()) prefix += ",";
          std::uint64_t cumulative = 0;
          const auto emit_bucket = [&](const std::string& le) {
            out += name;
            out += "_bucket{";
            out += prefix;
            out += "le=\"";
            out += le;
            out += "\"} ";
            out += std::to_string(cumulative);
            out += "\n";
          };
          for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
            cumulative += snap.counts[i];
            emit_bucket(format_double(snap.bounds[i]));
          }
          cumulative += snap.counts[snap.bounds.size()];
          emit_bucket("+Inf");
          out += name;
          out += "_sum";
          if (!labels.empty()) {
            out += "{";
            out += labels;
            out += "}";
          }
          out += " ";
          out += format_double(snap.sum);
          out += "\n";
          out += name;
          out += "_count";
          if (!labels.empty()) {
            out += "{";
            out += labels;
            out += "}";
          }
          out += " ";
          out += std::to_string(snap.count);
          out += "\n";
          break;
        }
      }
    }
  }
  return out;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Series>& series : series_) {
    switch (series->type) {
      case Type::kCounter: series->counter->reset(); break;
      case Type::kGauge: series->gauge->reset(); break;
      case Type::kHistogram: series->histogram->reset(); break;
    }
  }
}

Registry& registry() {
  static Registry instance;
  return instance;
}

Counter& counter(const std::string& name, const std::string& help,
                 const std::string& labels) {
  return registry().counter(name, help, labels);
}

Gauge& gauge(const std::string& name, const std::string& help,
             const std::string& labels) {
  return registry().gauge(name, help, labels);
}

Histogram& histogram(const std::string& name, const std::string& help,
                     std::vector<double> bounds, const std::string& labels) {
  return registry().histogram(name, help, std::move(bounds), labels);
}

std::string prometheus_text() { return registry().expose(); }

}  // namespace obs
