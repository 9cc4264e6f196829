// Host record and roofline denominator: processor count, CPU model, L3
// size, load average, and a single-thread STREAM-style triad on arrays
// that together span at least four times the L3, so the triad measures
// DRAM bandwidth — the ceiling the single-thread Bellman sweeps are
// compared against (mdp.bw_frac).
#include "host.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

std::string first_line_of(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// sysfs reports e.g. "32768K"; 0 when absent.
double l3_megabytes() {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (first_line_of(dir + "/level") != "3") continue;
    const std::string size = first_line_of(dir + "/size");
    if (size.empty()) return 0.0;
    double value = std::stod(size);
    if (size.back() == 'K') value /= 1024.0;
    if (size.back() == 'G') value *= 1024.0;
    return value;
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

double load1() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

HostRecord probe_host() {
  HostRecord host;
  host.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  host.cpu_model = cpu_model();
  host.l3_mb = l3_megabytes();
  host.load1_start = load1();
  return host;
}

void measure_triad(HostRecord& host) {
  // Three arrays totalling >= 4x L3 (32 MB assumed when sysfs is silent).
  const double l3 = host.l3_mb > 0.0 ? host.l3_mb : 32.0;
  const std::size_t n =
      static_cast<std::size_t>(4.0 * l3 * 1024.0 * 1024.0 / 3.0 / 8.0) + 1;
  host.triad_mb = 3.0 * static_cast<double>(n) * 8.0 / (1024.0 * 1024.0);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0;
  }
  // One pass takes a few ms, so take the best of many: a neighbour's
  // burst then costs a few passes instead of the reading.
  constexpr int kTriadReps = 40;
  const double scalar = 3.0;
  double best = 1e30;
  for (int rep = 0; rep < kTriadReps; ++rep) {
    const double start = now_seconds();
    double* const out = a.get();
    const double* const x = b.get();
    const double* const y = c.get();
    for (std::size_t i = 0; i < n; ++i) out[i] = x[i] + scalar * y[i];
    best = std::min(best, now_seconds() - start);
    c[rep] += a[n - 1 - static_cast<std::size_t>(rep)];  // keep the stores live
  }
  host.triad_gbps = 3.0 * 8.0 * static_cast<double>(n) / best / 1e9;
}

}  // namespace perfbench
