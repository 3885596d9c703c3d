#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generation for the three workloads. Everything the program
// under test sees is text — DTD, XML listings, mapping and constraint files
// — exactly what lsd_generate would write to disk; the benchmark never
// hands the library a generator-built object.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// One generated source as text, with the generator's gold mapping.
struct SourceText {
  std::string id;
  std::string dtd;
  std::string xml;   // one <listings> root wrapping every listing
  std::string gold;  // Mapping::ToString format
};

/// What a trained model is built from: lsd_match / lsd_serve inputs.
struct ModelText {
  std::string mediated_dtd;
  std::vector<SourceText> training;
  /// domain.constraints text; empty for the serve workloads (like
  /// `lsd_serve --listen`, which registers no constraints).
  std::string constraints;
};

struct ServeInputs {
  ModelText model;
  /// serve-repeat's request pool, cycled for the whole run.
  std::vector<SourceText> pool;
  /// Requests that are never timed: serve-fresh's warm-up traffic (its
  /// first entry also answers set-up's first request) and the two golden
  /// requests every Reload() is validated against.
  std::vector<SourceText> warmup;
  std::vector<SourceText> golden;
  /// serve-fresh's distinct requests, consumed in order (empty for
  /// serve-repeat).
  std::vector<SourceText> fresh;
};

struct BatchInputs {
  ModelText model;
  std::vector<SourceText> targets;
};

/// Listings per source in the serve workloads' training sources (the model
/// is trained like `lsd_serve` on real-estate-1 sources 0-2).
inline constexpr size_t kServeTrainListings = 60;
/// Listings per serve request: held-out real-estate-1 sources at the
/// training size, as the repository's service and transport benches send
/// them (bench_service, bench_net).
inline constexpr size_t kServeRequestListings = 60;
/// batch-search: real-estate-2 sources at 100 listings.
inline constexpr size_t kBatchListings = 100;

/// Mixes a workload seed with a stream id (splitmix64); never returns 0,
/// which the generator reads as "derive from the structure seed".
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// serve-repeat / serve-fresh inputs, with `warmup_count` (at least 1)
/// warm-up requests and `fresh_count` distinct fresh requests (0 for
/// serve-repeat).
lsd::StatusOr<ServeInputs> MakeServeInputs(uint64_t seed, size_t warmup_count,
                                           size_t fresh_count);

/// batch-search inputs: the model text plus the target list.
lsd::StatusOr<BatchInputs> MakeBatchInputs(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
