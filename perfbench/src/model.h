#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

// Building a trained system from text the way the tools do, and parsing a
// request the way the service does.

#include <chrono>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "core/lsd_config.h"
#include "core/lsd_system.h"
#include "inputs.h"
#include "schema/schema.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Parses the model text strictly (lsd_match / lsd_serve read their
/// training files with the strict parsers), registers the constraints, and
/// trains. `train_ms`, when given, receives the wall time of
/// LsdSystem::Train alone.
lsd::StatusOr<std::unique_ptr<lsd::LsdSystem>> BuildSystem(
    const ModelText& model, const lsd::LsdConfig& config,
    double* train_ms = nullptr);

/// Parses a source file pair with the strict parsers, as lsd_match reads
/// its training and target files.
lsd::StatusOr<lsd::DataSource> ParseSourceStrict(const SourceText& text);

/// Parses a request's DTD and XML with the lenient parsers, as
/// MatchService does, into a source named after the request id.
lsd::StatusOr<lsd::DataSource> ParseRequest(const SourceText& request);

/// The service's response fingerprint: the mapping, then every tag's
/// converter scores at full precision.
std::string Fingerprint(const lsd::MatchResult& result);

/// Matching accuracy in percent against the generator's gold mapping.
lsd::StatusOr<double> AccuracyPct(const std::string& mapping_text,
                                  const std::string& gold_text);

/// Growth of a registry counter between two snapshots.
uint64_t CounterDelta(const lsd::MetricsSnapshot& before,
                      const lsd::MetricsSnapshot& after,
                      const std::string& name);

/// Growth of a microsecond histogram's sum between two snapshots, in ms.
double HistogramDeltaMs(const lsd::MetricsSnapshot& before,
                        const lsd::MetricsSnapshot& after,
                        const std::string& name);

/// Ok unless some tag of `source`'s schema is missing from `mapping`.
lsd::Status CheckCoversEveryTag(const lsd::DataSource& source,
                                const lsd::Mapping& mapping);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
