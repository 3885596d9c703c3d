#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Percentiles and open-loop arrival timing.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// The latency recorded for a request that was shed, failed, or lost to a
/// transport error: it misses every latency limit, so it sorts above every
/// answered request and is never dropped from a percentile.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (q in (0, 1]) over `samples`, where missed
/// requests are kMissed entries. Returns kMissed when the rank lands on a
/// missed request and 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

/// A percentile that one burst of host interference cannot decide:
/// `samples` (in arrival order) are cut into as many consecutive slices of
/// at least `min_slice` samples as fit, and the median of the slices'
/// nearest-rank q-percentiles is returned. With fewer than 2 * min_slice
/// samples it is the plain Percentile.
double SlicedPercentile(const std::vector<double>& samples, double q,
                        size_t min_slice);

/// Median (mean of the middle pair for even sizes); 0 for empty input.
double Median(std::vector<double> values);

/// Seeded Poisson arrival schedule conditioned on its count: rate x
/// duration due times in seconds from the start of the window, strictly
/// increasing, all below `duration_s`.
std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    uint64_t seed);

/// One open-loop request's clock readings, in seconds from window start.
struct OpenLoopTiming {
  double due_s = 0.0;   // when the schedule said to send it
  double sent_s = 0.0;  // when a connection actually sent it
  double done_s = 0.0;  // when its response arrived
  bool answered = false;
};

/// Latency as the user sees it: from the due time, so a stalled generator
/// or a busy connection charges its wait to every request behind it.
/// Unanswered requests are kMissed.
double LatencyFromDueMs(const OpenLoopTiming& timing);

/// How late the generator sent the request (never negative).
double LatenessMs(const OpenLoopTiming& timing);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
