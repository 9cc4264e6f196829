#pragma once

#include <string>

namespace perfbench {

struct HostRecord {
  int nproc = 0;
  std::string cpu_model;
  double l3_mb = 0.0;     ///< 0 when the OS does not report it.
  double triad_mb = 0.0;  ///< Total size of the three triad arrays.
  double triad_gbps = 0.0;
  double load1_start = 0.0;
  double load1_end = 0.0;
};

/// One-minute load average.
double load1();
/// Everything but the triad, with load1_start taken now.
HostRecord probe_host();
/// Best-of-40 single-thread triad a = b + s*c; fills triad_mb/triad_gbps.
void measure_triad(HostRecord& host);

}  // namespace perfbench
