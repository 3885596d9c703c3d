#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double SlicedPercentile(const std::vector<double>& samples, double q,
                        size_t min_slice) {
  size_t slices = min_slice == 0 ? 1 : samples.size() / min_slice;
  if (slices <= 1) return Percentile(samples, q);
  std::vector<double> tails;
  for (size_t i = 0; i < slices; ++i) {
    auto begin = samples.begin() + samples.size() * i / slices;
    auto end = samples.begin() + samples.size() * (i + 1) / slices;
    tails.push_back(Percentile(std::vector<double>(begin, end), q));
  }
  return Median(tails);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    uint64_t seed) {
  // Given its count, a Poisson process's arrival times are independent
  // uniform draws over the window; fixing the count at rate x duration
  // offers every run the same number of requests.
  const size_t count = static_cast<size_t>(rate_per_s * duration_s);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> at(0.0, duration_s);
  std::vector<double> due(count);
  for (double& t : due) t = at(rng);
  std::sort(due.begin(), due.end());
  due.erase(std::unique(due.begin(), due.end()), due.end());
  return due;
}

double LatencyFromDueMs(const OpenLoopTiming& timing) {
  if (!timing.answered) return kMissed;
  return (timing.done_s - timing.due_s) * 1e3;
}

double LatenessMs(const OpenLoopTiming& timing) {
  return std::max(0.0, timing.sent_s - timing.due_s) * 1e3;
}

}  // namespace perfbench
