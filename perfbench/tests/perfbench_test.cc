// Unit tests for the benchmark's own helpers:
//   cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "inputs.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileTest, MissedRequestsSortAboveEveryAnswer) {
  std::vector<double> samples;
  for (int i = 1; i <= 98; ++i) samples.push_back(i);
  samples.push_back(kMissed);
  samples.push_back(kMissed);
  EXPECT_EQ(Percentile(samples, 0.50), 50.0);
  EXPECT_EQ(Percentile(samples, 0.98), 98.0);
  // Two of 100 requests missed: they are the top 2%, so p99 is a miss,
  // not the slowest answer.
  EXPECT_EQ(Percentile(samples, 0.99), kMissed);
}

TEST(PercentileTest, MissedRequestsAreNeverDropped) {
  // A shed request answers instantly; leaving it out (or counting its
  // instant answer) would make the tail look better. Nine fast answers and
  // one miss: the maximum is the miss.
  std::vector<double> samples(9, 5.0);
  samples.push_back(kMissed);
  EXPECT_EQ(Percentile(samples, 1.0), kMissed);
  EXPECT_EQ(Percentile(samples, 0.9), 5.0);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples = {4, 1, 3, 2};
  EXPECT_EQ(Percentile(samples, 0.5), 2.0);
  EXPECT_EQ(Percentile(samples, 0.75), 3.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  // 1000 samples leave exactly ten above the nearest-rank p99.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT_EQ(Percentile(thousand, 0.99), 990.0);
}

TEST(PercentileTest, SlicedPercentileIgnoresOneStalledSlice) {
  // 3000 samples in arrival order; a stall makes the first 40 of them
  // slow. The whole-window p99 lands in the stall; the median of the three
  // 1000-sample slices' p99s does not.
  std::vector<double> samples(3000, 10.0);
  for (size_t i = 0; i < 40; ++i) samples[i] = 500.0;
  for (size_t i = 0; i < 3000; i += 50) samples[i + 25] = 20.0;
  EXPECT_EQ(Percentile(samples, 0.99), 500.0);
  EXPECT_EQ(SlicedPercentile(samples, 0.99, 1000), 20.0);
  // Too few samples for two slices: the plain percentile.
  std::vector<double> short_run(samples.begin(), samples.begin() + 1999);
  EXPECT_EQ(SlicedPercentile(short_run, 0.99, 1000),
            Percentile(short_run, 0.99));
  // Missed requests still count in their slice.
  std::vector<double> missed(3000, 10.0);
  for (size_t i = 0; i < 3000; i += 50) missed[i] = kMissed;
  EXPECT_EQ(SlicedPercentile(missed, 0.99, 1000), kMissed);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(OpenLoopTest, LatencyCountsFromTheDueTime) {
  OpenLoopTiming late{/*due_s=*/1.0, /*sent_s=*/1.5, /*done_s=*/2.0, true};
  EXPECT_DOUBLE_EQ(LatencyFromDueMs(late), 1000.0);
  EXPECT_DOUBLE_EQ(LatenessMs(late), 500.0);

  OpenLoopTiming on_time{1.0, 1.0, 1.25, true};
  EXPECT_DOUBLE_EQ(LatencyFromDueMs(on_time), 250.0);
  EXPECT_DOUBLE_EQ(LatenessMs(on_time), 0.0);

  OpenLoopTiming lost{1.0, 1.0, 1.1, false};
  EXPECT_EQ(LatencyFromDueMs(lost), kMissed);
}

TEST(OpenLoopTest, PoissonScheduleIsSeededAndBounded) {
  std::vector<double> a = PoissonSchedule(50.0, 20.0, 7);
  std::vector<double> b = PoissonSchedule(50.0, 20.0, 7);
  std::vector<double> c = PoissonSchedule(50.0, 20.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(a[i], 20.0);
    if (i > 0) {
      EXPECT_GT(a[i], a[i - 1]);
    }
  }
  // The count is fixed at rate x duration.
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_EQ(c.size(), 1000u);
}

void ExpectSameText(const std::vector<SourceText>& a,
                    const std::vector<SourceText>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].dtd, b[i].dtd);
    EXPECT_EQ(a[i].xml, b[i].xml);
    EXPECT_EQ(a[i].gold, b[i].gold);
  }
}

TEST(InputsTest, SameSeedGivesIdenticalServeInputs) {
  auto first = MakeServeInputs(7, 5, 40);
  auto second = MakeServeInputs(7, 5, 40);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->model.mediated_dtd, second->model.mediated_dtd);
  ExpectSameText(first->model.training, second->model.training);
  ExpectSameText(first->pool, second->pool);
  ExpectSameText(first->golden, second->golden);
  ExpectSameText(first->warmup, second->warmup);
  ExpectSameText(first->fresh, second->fresh);
  EXPECT_EQ(first->pool.size(), 12u);
  EXPECT_EQ(first->golden.size(), 2u);
  EXPECT_EQ(first->warmup.size(), 5u);
  EXPECT_EQ(first->fresh.size(), 40u);

  // Another seed draws other traffic for the same model.
  auto other = MakeServeInputs(8, 5, 40);
  ASSERT_TRUE(other.ok());
  ExpectSameText(first->model.training, other->model.training);
  EXPECT_NE(first->pool[0].xml, other->pool[0].xml);
  EXPECT_NE(first->fresh[0].xml, other->fresh[0].xml);
}

TEST(InputsTest, FreshRequestsNeverRepeat) {
  auto inputs = MakeServeInputs(11, 5, 200);
  ASSERT_TRUE(inputs.ok());
  std::set<std::string> seen;
  for (const SourceText& request : inputs->fresh) {
    EXPECT_TRUE(seen.insert(request.dtd + request.xml).second) << request.id;
  }
  for (const auto* others : {&inputs->pool, &inputs->warmup}) {
    for (const SourceText& request : *others) {
      EXPECT_EQ(seen.count(request.dtd + request.xml), 0u) << request.id;
    }
  }
}

TEST(InputsTest, SameSeedGivesIdenticalBatchInputs) {
  auto first = MakeBatchInputs(7);
  auto second = MakeBatchInputs(7);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->model.mediated_dtd, second->model.mediated_dtd);
  EXPECT_EQ(first->model.constraints, second->model.constraints);
  EXPECT_FALSE(first->model.constraints.empty());
  ExpectSameText(first->model.training, second->model.training);
  ExpectSameText(first->targets, second->targets);
  EXPECT_EQ(first->targets.size(), 36u);

  auto other = MakeBatchInputs(1001);
  ASSERT_TRUE(other.ok());
  ExpectSameText(first->model.training, other->model.training);
  EXPECT_NE(first->targets[0].xml, other->targets[0].xml);
}

}  // namespace
}  // namespace perfbench
