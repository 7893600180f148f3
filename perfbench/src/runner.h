// One benchmark run: whole rounds of one workload, each on a fresh cluster
// (set up, namespace loaded, caches warmed), a fixed op count measured in a
// closed loop, then drained, heartbeated and checked by the oracle. The
// run repeats rounds until the measured time reaches its budget and
// reports the median of every metric over its rounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct RunConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  // false: untraced rounds, end-to-end metrics. true: untraced and traced
  // rounds alternate; per-layer metrics come from the traced ones.
  bool trace = false;
  // Drive the HDFS baseline namesystem instead (untraced only).
  bool hdfs = false;
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  // Per-round values of the reported metrics, "<op>/<status>" failure
  // counts and oracle violations, for the diagnostic line.
  std::vector<std::map<std::string, double>> rounds;
  std::map<std::string, uint64_t> failures;
  std::vector<std::string> errors;
};

RunOutput Run(const RunConfig& config);

}  // namespace perfbench
