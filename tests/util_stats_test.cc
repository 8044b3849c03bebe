#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat stat;
  stat.Add(3.5);
  EXPECT_EQ(stat.count(), 1u);
  EXPECT_DOUBLE_EQ(stat.mean(), 3.5);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stat.min(), 3.5);
  EXPECT_DOUBLE_EQ(stat.max(), 3.5);
}

TEST(RunningStat, KnownMoments) {
  RunningStat stat;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(v);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stat.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStat, AgreesWithTwoPassOnRandomData) {
  Rng rng(31);
  RunningStat stat;
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble() * 100 - 50;
    values.push_back(v);
    stat.Add(v);
  }
  double mean = 0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size() - 1);
  EXPECT_NEAR(stat.mean(), mean, 1e-9);
  EXPECT_NEAR(stat.variance(), var, 1e-6);
}

TEST(WilsonInterval, ContainsPointEstimate) {
  for (std::size_t successes : {0u, 1u, 25u, 50u, 99u, 100u}) {
    const WilsonInterval ci = WilsonScoreInterval(successes, 100);
    const double p = static_cast<double>(successes) / 100.0;
    EXPECT_LE(ci.low, p + 1e-12);
    EXPECT_GE(ci.high, p - 1e-12);
    EXPECT_GE(ci.low, 0.0);
    EXPECT_LE(ci.high, 1.0);
  }
}

TEST(WilsonInterval, NarrowsWithMoreTrials) {
  const WilsonInterval small = WilsonScoreInterval(5, 10);
  const WilsonInterval large = WilsonScoreInterval(500, 1000);
  EXPECT_LT(large.high - large.low, small.high - small.low);
}

TEST(WilsonInterval, ExtremesStayProper) {
  const WilsonInterval zero = WilsonScoreInterval(0, 30);
  EXPECT_DOUBLE_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);
  const WilsonInterval full = WilsonScoreInterval(30, 30);
  EXPECT_DOUBLE_EQ(full.high, 1.0);
  EXPECT_LT(full.low, 1.0);
}

TEST(WilsonInterval, RejectsBadArguments) {
  EXPECT_THROW((void)WilsonScoreInterval(1, 0), std::invalid_argument);
  EXPECT_THROW((void)WilsonScoreInterval(5, 4), std::invalid_argument);
}

TEST(WilsonInterval, CoversTrueRate) {
  // ~95% of intervals over repeated experiments should contain p.
  Rng rng(32);
  const double p = 0.3;
  int covered = 0;
  constexpr int kExperiments = 400;
  for (int e = 0; e < kExperiments; ++e) {
    std::size_t hits = 0;
    constexpr std::size_t kTrials = 200;
    for (std::size_t t = 0; t < kTrials; ++t) hits += rng.Bernoulli(p);
    const WilsonInterval ci = WilsonScoreInterval(hits, kTrials);
    covered += (ci.low <= p && p <= ci.high);
  }
  EXPECT_GT(covered, kExperiments * 0.90);
}

TEST(RunningStat, MergeMatchesOneShotAccumulation) {
  Rng rng(33);
  std::vector<double> values;
  for (int i = 0; i < 900; ++i) values.push_back(rng.UniformDouble() * 40 - 7);
  RunningStat one_shot;
  for (double v : values) one_shot.Add(v);
  // Fold three disjoint chunks -- the shape of checkpointed partial
  // aggregates -- and compare against one-shot accumulation.
  RunningStat merged;
  for (int chunk = 0; chunk < 3; ++chunk) {
    RunningStat part;
    for (int i = chunk * 300; i < (chunk + 1) * 300; ++i) part.Add(values[i]);
    merged.Merge(part);
  }
  EXPECT_EQ(merged.count(), one_shot.count());
  EXPECT_DOUBLE_EQ(merged.min(), one_shot.min());
  EXPECT_DOUBLE_EQ(merged.max(), one_shot.max());
  EXPECT_NEAR(merged.mean(), one_shot.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), one_shot.variance(), 1e-9);
}

TEST(RunningStat, MergeIsAssociative) {
  Rng rng(34);
  RunningStat a, b, c;
  for (int i = 0; i < 100; ++i) a.Add(rng.UniformDouble());
  for (int i = 0; i < 57; ++i) b.Add(rng.UniformDouble() * 3 + 1);
  for (int i = 0; i < 211; ++i) c.Add(rng.UniformDouble() * 9 - 5);
  RunningStat left = a;
  left.Merge(b);
  left.Merge(c);
  RunningStat bc = b;
  bc.Merge(c);
  RunningStat right = a;
  right.Merge(bc);
  EXPECT_EQ(left.count(), right.count());
  EXPECT_DOUBLE_EQ(left.min(), right.min());
  EXPECT_DOUBLE_EQ(left.max(), right.max());
  EXPECT_NEAR(left.mean(), right.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), right.variance(), 1e-9);
}

TEST(RunningStat, MergeWithEmptyIsIdentity) {
  RunningStat stat;
  for (double v : {1.0, 2.0, 6.0}) stat.Add(v);
  RunningStat empty;
  stat.Merge(empty);
  EXPECT_EQ(stat.count(), 3u);
  EXPECT_DOUBLE_EQ(stat.mean(), 3.0);
  RunningStat other;
  other.Merge(stat);
  EXPECT_EQ(other.count(), 3u);
  EXPECT_DOUBLE_EQ(other.mean(), 3.0);
  EXPECT_DOUBLE_EQ(other.min(), 1.0);
  EXPECT_DOUBLE_EQ(other.max(), 6.0);
}

TEST(SuccessCounter, MergeMatchesOneShotAndAssociates) {
  SuccessCounter one_shot, a, b, c;
  for (int i = 0; i < 30; ++i) {
    const bool success = i % 3 == 0;
    one_shot.Record(success);
    (i < 10 ? a : i < 17 ? b : c).Record(success);
  }
  SuccessCounter left = a;
  left.Merge(b);
  left.Merge(c);
  SuccessCounter bc = b;
  bc.Merge(c);
  SuccessCounter right = a;
  right.Merge(bc);
  EXPECT_EQ(left.trials(), one_shot.trials());
  EXPECT_EQ(left.successes(), one_shot.successes());
  EXPECT_EQ(right.trials(), one_shot.trials());
  EXPECT_EQ(right.successes(), one_shot.successes());
}

TEST(SuccessCounter, TracksRateAndInterval) {
  SuccessCounter counter;
  EXPECT_DOUBLE_EQ(counter.rate(), 0.0);
  for (int i = 0; i < 10; ++i) counter.Record(i < 7);
  EXPECT_EQ(counter.trials(), 10u);
  EXPECT_EQ(counter.successes(), 7u);
  EXPECT_DOUBLE_EQ(counter.rate(), 0.7);
  const WilsonInterval ci = counter.interval();
  EXPECT_LT(ci.low, 0.7);
  EXPECT_GT(ci.high, 0.7);
}

TEST(SuccessCounter, ZeroTrialsIntervalIsVacuous) {
  // With no data the interval must be the vacuous [0, 1], not the
  // Wilson formula evaluated at n = 0 (which fabricates a finite-looking
  // interval centred on z^2 / (z^2) terms that no trial ever supported).
  const SuccessCounter counter;
  ASSERT_EQ(counter.trials(), 0u);
  const WilsonInterval ci = counter.interval();
  EXPECT_DOUBLE_EQ(ci.low, 0.0);
  EXPECT_DOUBLE_EQ(ci.high, 1.0);
  // ...and at any confidence level.
  const WilsonInterval wide = counter.interval(/*z=*/3.0);
  EXPECT_DOUBLE_EQ(wide.low, 0.0);
  EXPECT_DOUBLE_EQ(wide.high, 1.0);
}

TEST(SuccessCounter, OneTrialIntervalIsInformative) {
  // The n >= 1 branch still goes through the Wilson formula: a single
  // success must pull the interval off [0, 1].
  SuccessCounter counter;
  counter.Record(true);
  const WilsonInterval ci = counter.interval();
  EXPECT_GT(ci.low, 0.0);
  EXPECT_LE(ci.high, 1.0);
  EXPECT_LT(ci.low, ci.high);
}

}  // namespace
}  // namespace noisybeeps
