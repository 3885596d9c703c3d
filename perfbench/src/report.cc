#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

#include "common/file_util.h"
#include "common/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += lsd::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit of the measurement; a missed-request percentile (+inf) has
// no JSON spelling, so it is written as 1e300.
std::string JsonNumber(double value) {
  if (std::isnan(value)) return "0";
  if (std::isinf(value)) return value > 0 ? "1e300" : "-1e300";
  return lsd::StrFormat("%.17g", value);
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

void RecordEnvironment(RunResult* result, size_t run_seconds) {
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  result->env = {
      {"workload", result->workload},
      {"seed", std::to_string(result->seed)},
      {"traced", result->traced ? "1" : "0"},
      {"run_seconds", std::to_string(run_seconds)},
      {"nproc", std::to_string(nproc)},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"git_sha", EnvOr("PERFBENCH_GIT_SHA", "unknown")},
      {"src_digest", EnvOr("PERFBENCH_SRC_DIGEST", "unknown")},
  };
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  struct timespec now {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + now.tv_nsec / 1e9;
}

namespace {

bool ReadCpuTimes(uint64_t* steal, uint64_t* total) {
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return false;
  unsigned long long fields[8] = {};
  int read = std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                         &fields[0], &fields[1], &fields[2], &fields[3],
                         &fields[4], &fields[5], &fields[6], &fields[7]);
  std::fclose(file);
  if (read != 8) return false;
  *steal = fields[7];
  *total = 0;
  for (unsigned long long field : fields) *total += field;
  return true;
}

}  // namespace

StealProbe::StealProbe() { ok_ = ReadCpuTimes(&steal_, &total_); }

double StealProbe::SharePct() const {
  uint64_t steal = 0, total = 0;
  if (!ok_ || !ReadCpuTimes(&steal, &total) || total <= total_) return -1.0;
  return 100.0 * static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

std::string ResultJsonLine(const RunResult& result) {
  return lsd::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}",
      result.correct() ? "true" : "false",
      (unsigned long long)result.attempted, (unsigned long long)result.failed,
      MetricsObject(result.metrics).c_str());
}

void PrintReport(const RunResult& result) {
  std::printf("perfbench %s seed=%llu %s\n", result.workload.c_str(),
              (unsigned long long)result.seed,
              result.traced ? "(traced: per-layer)" : "(end-to-end)");
  for (const auto& [key, value] : result.env) {
    std::printf("  env %-22s %s\n", key.c_str(), value.c_str());
  }
  std::printf("  %-40s %llu\n", "attempted",
              (unsigned long long)result.attempted);
  std::printf("  %-40s %llu\n", "failed", (unsigned long long)result.failed);
  for (const std::vector<Metric>* list : {&result.metrics, &result.details}) {
    for (const Metric& metric : *list) {
      std::printf("  %-40s %14.4f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (const std::string& error : result.errors) {
    std::printf("  CORRECTNESS FAILURE: %s\n", error.c_str());
  }
  std::fflush(stdout);
}

lsd::Status WriteResultFile(const RunResult& result, const std::string& path) {
  std::string json = "{\n  \"env\": {";
  for (size_t i = 0; i < result.env.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(result.env[i].first) + ": " +
            JsonString(result.env[i].second);
  }
  json += "},\n  \"result\": " + ResultJsonLine(result) + ",\n";
  json += "  \"details\": " + MetricsObject(result.details) + ",\n";
  json += "  \"errors\": [";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(result.errors[i]);
  }
  json += "]\n}\n";
  return lsd::WriteStringToFile(path, json);
}

}  // namespace perfbench
