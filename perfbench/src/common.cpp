#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void log_failure(const std::string& what) {
  std::cerr << "perfbench: FAILED " << what << std::endl;
}

namespace {

constexpr double kLatencyFloor = 1e-6;     // seconds
constexpr double kLatencyGrowth = 1.001;   // bucket width ratio
constexpr std::size_t kLatencyBuckets = 23100;  // up to ~1e4 s

}  // namespace

LatencyLog::LatencyLog() : buckets_(kLatencyBuckets, 0) {}

void LatencyLog::add(double seconds) {
  const double position =
      std::log(std::max(seconds, kLatencyFloor) / kLatencyFloor) /
      std::log(kLatencyGrowth);
  ++buckets_[std::min(static_cast<std::size_t>(position),
                      kLatencyBuckets - 1)];
  ++count_;
}

void LatencyLog::merge(const LatencyLog& other) {
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyLog::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= rank) {
      return kLatencyFloor *
             std::pow(kLatencyGrowth, static_cast<double>(i) + 0.5);
    }
  }
  return kLatencyFloor * std::pow(kLatencyGrowth, kLatencyBuckets);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t rank = (values.size() + 1) / 2;  // ceil(n / 2)
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

ObsSnapshot ObsSnapshot::take() {
  ObsSnapshot snapshot;
  std::istringstream text(obs::prometheus_text());
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snapshot.series[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return snapshot;
}

namespace {

/// "name{a="x",le="0.5"}" -> name, label body.
void split_series(const std::string& series, std::string& name,
                  std::string& labels) {
  const std::size_t brace = series.find('{');
  if (brace == std::string::npos) {
    name = series;
    labels.clear();
    return;
  }
  name = series.substr(0, brace);
  labels = series.substr(brace + 1, series.size() - brace - 2);
}

}  // namespace

double ObsSnapshot::total(const std::string& name) const {
  double sum = 0.0;
  std::string series_name, labels;
  for (const auto& [key, value] : series) {
    split_series(key, series_name, labels);
    if (series_name == name) sum += value;
  }
  return sum;
}

double obs_delta(const ObsSnapshot& before, const ObsSnapshot& after,
                 const std::string& name) {
  return after.total(name) - before.total(name);
}

obs::HistogramSnapshot histogram_delta(const ObsSnapshot& before,
                                       const ObsSnapshot& after,
                                       const std::string& name) {
  // Cumulative bucket counts per upper bound, summed over label sets.
  std::map<double, double> cumulative;
  double sum = 0.0;
  double count = 0.0;
  const std::string bucket = name + "_bucket";
  const auto accumulate = [&](const ObsSnapshot& snapshot, double sign) {
    std::string series_name, labels;
    for (const auto& [key, value] : snapshot.series) {
      split_series(key, series_name, labels);
      if (series_name == bucket) {
        const std::size_t le = labels.find("le=\"");
        const std::string bound =
            labels.substr(le + 4, labels.find('"', le + 4) - le - 4);
        const double upper = bound == "+Inf"
                                 ? std::numeric_limits<double>::infinity()
                                 : std::stod(bound);
        cumulative[upper] += sign * value;
      } else if (series_name == name + "_sum") {
        sum += sign * value;
      } else if (series_name == name + "_count") {
        count += sign * value;
      }
    }
  };
  accumulate(after, 1.0);
  accumulate(before, -1.0);

  obs::HistogramSnapshot snapshot;
  double previous = 0.0;
  for (const auto& [upper, total] : cumulative) {
    if (std::isfinite(upper)) snapshot.bounds.push_back(upper);
    snapshot.counts.push_back(
        static_cast<std::uint64_t>(std::llround(total - previous)));
    previous = total;
  }
  if (snapshot.counts.size() == snapshot.bounds.size()) {
    snapshot.counts.push_back(0);  // no +Inf line seen
  }
  snapshot.sum = sum;
  snapshot.count = static_cast<std::uint64_t>(std::llround(count));
  return snapshot;
}

References::References(const std::string& data_dir) {
  const std::string path = data_dir + "/reference/brackets.txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    int d = 0, f = 0, l = 0;
    double gamma = 0.0, p = 0.0, lo = 0.0, hi = 0.0;
    if (!(fields >> d >> f >> l >> gamma >> p >> lo >> hi)) {
      throw std::runtime_error("malformed line in " + path + ": " + line);
    }
    brackets_[key(d, f, l, gamma, p)] = {lo, hi};
  }
}

std::string References::key(int d, int f, int l, double gamma, double p) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "%d %d %d %.4f %.4f", d, f, l, gamma,
                p);
  return buffer;
}

bool References::find(int d, int f, int l, double gamma, double p,
                      double& lo, double& hi) const {
  const auto it = brackets_.find(key(d, f, l, gamma, p));
  if (it == brackets_.end()) return false;
  lo = it->second.first;
  hi = it->second.second;
  return true;
}

std::string check_answer(double lo, double hi, double policy_errev,
                         double epsilon, double ref_lo, double ref_hi,
                         bool has_ref, double slack) {
  std::ostringstream why;
  if (!(hi - lo <= epsilon + slack)) {
    why << "bracket [" << lo << ", " << hi << "] wider than epsilon";
  } else if (!(policy_errev >= lo - 1e-9 - slack)) {
    why << "strategy ERRev " << policy_errev << " below lower bound " << lo;
  } else if (!has_ref) {
    why << "no reference bracket recorded for this point";
  } else if (!(lo <= ref_hi + slack && ref_lo <= hi + slack)) {
    why << "bracket [" << lo << ", " << hi << "] misses reference ["
        << ref_lo << ", " << ref_hi << "]";
  }
  return why.str();
}

}  // namespace perfbench
