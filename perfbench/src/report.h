#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// One run's outcome: the metrics, the correctness verdict, and the
// environment they were measured in.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness-gate failures; empty means correct.
  std::vector<std::string> errors;
  /// Every figure a workload measured, by metric name.
  std::map<std::string, double> values;
  /// The metrics of the final JSON line, in BENCHMARK.json order: the
  /// end-to-end set in an untraced run, the per-layer set in a traced one.
  std::vector<Metric> metrics;
  /// Figures printed in the report and result file only: derived ratios,
  /// property shares, sample counts.
  std::vector<Metric> details;
  std::vector<std::pair<std::string, std::string>> env;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) { errors.push_back(std::move(why)); }
  bool correct() const { return errors.empty(); }
};

/// Fills `result.env`: core counts, build type, source revision, seed.
void RecordEnvironment(RunResult* result, size_t run_seconds);

/// Peak resident set size of this process so far, in MB (getrusage).
double PeakRssMb();

/// CPU time every thread of this process has run so far, in seconds
/// (CLOCK_PROCESS_CPUTIME_ID).
double ProcessCpuSeconds();

/// CPU time the hypervisor gave to other guests, as a share of all CPU
/// time since the probe was made (the "steal" column of /proc/stat; -1
/// where that is not readable). On a shared host this is what moves the
/// timings between runs, so every result reports it for its window.
class StealProbe {
 public:
  StealProbe();
  double SharePct() const;

 private:
  uint64_t steal_ = 0;
  uint64_t total_ = 0;
  bool ok_ = false;
};

/// The contract line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJsonLine(const RunResult& result);

/// Human-readable report (environment, every metric and detail with its
/// unit, gate failures) on stdout.
void PrintReport(const RunResult& result);

/// Writes the full result (environment, metrics, details, errors) as JSON
/// to `path`.
lsd::Status WriteResultFile(const RunResult& result, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
