#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

namespace noisybeeps {
namespace {

TEST(ParallelTrials, RunsEveryTrialExactlyOnce) {
  Rng rng(1);
  // A plain lambda: no std::function type erasure on the sweep path.
  const std::vector<int> results =
      ParallelTrials(100, rng, [](int t, Rng&) { return t; }, 4);
  ASSERT_EQ(results.size(), 100u);
  for (int t = 0; t < 100; ++t) EXPECT_EQ(results[t], t);
}

TEST(ParallelTrials, StdFunctionBodiesStillWork) {
  Rng rng(1);
  const std::function<int(int, Rng&)> body = [](int t, Rng&) { return t; };
  const std::vector<int> results = ParallelTrials(10, rng, body, 2);
  ASSERT_EQ(results.size(), 10u);
  for (int t = 0; t < 10; ++t) EXPECT_EQ(results[t], t);
}

TEST(ParallelTrials, ResultNeedsNoDefaultConstructor) {
  // Results are constructed in place; move-only, non-default-constructible
  // result types are fine.
  struct Heavy {
    explicit Heavy(int v) : value(std::make_unique<int>(v)) {}
    Heavy(Heavy&&) = default;
    std::unique_ptr<int> value;
  };
  Rng rng(5);
  const std::vector<Heavy> results = ParallelTrials(
      32, rng, [](int t, Rng&) { return Heavy(t * 3); }, 4);
  ASSERT_EQ(results.size(), 32u);
  for (int t = 0; t < 32; ++t) EXPECT_EQ(*results[t].value, t * 3);
}

TEST(ParallelTrials, ResultsIndependentOfWorkerCount) {
  const auto body = [](int t, Rng& r) {
    // Consume a trial-dependent amount of randomness to catch any
    // cross-trial stream sharing.
    std::uint64_t acc = 0;
    for (int i = 0; i <= t % 7; ++i) acc ^= r.NextU64();
    return acc;
  };
  std::vector<std::vector<std::uint64_t>> by_workers;
  for (int workers : {1, 2, 5, 16}) {
    Rng rng(99);
    by_workers.push_back(ParallelTrials(64, rng, body, workers));
  }
  for (std::size_t i = 1; i < by_workers.size(); ++i) {
    EXPECT_EQ(by_workers[i], by_workers[0]) << i;
  }
}

TEST(ParallelTrials, ParentRngAdvancesDeterministically) {
  Rng a(7);
  Rng b(7);
  const auto body = [](int, Rng&) { return 0; };
  (void)ParallelTrials(10, a, body, 3);
  for (int t = 0; t < 10; ++t) (void)b.Split();
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(ParallelTrials, ZeroTrials) {
  Rng rng(3);
  const auto body = [](int, Rng&) { return 1; };
  EXPECT_TRUE(ParallelTrials(0, rng, body).empty());
  EXPECT_THROW((void)ParallelTrials(-1, rng, body), std::invalid_argument);
  EXPECT_THROW((void)ParallelTrials(1, rng, body, -2), std::invalid_argument);
}

TEST(ParallelForEach, RunsEveryIndexInOrder) {
  const std::vector<int> results =
      ParallelForEach(50, [](int i) { return i * 2; }, 4);
  ASSERT_EQ(results.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(results[i], i * 2);
}

TEST(ParallelForEach, RejectsBadArguments) {
  const auto body = [](int i) { return i; };
  EXPECT_TRUE(ParallelForEach(0, body).empty());
  EXPECT_THROW((void)ParallelForEach(-1, body), std::invalid_argument);
  EXPECT_THROW((void)ParallelForEach(1, body, -1), std::invalid_argument);
}

TEST(ParallelForEach, BodyExceptionPropagatesAtEveryWorkerCount) {
  // A throwing body must reach the CALLER as the thrown exception at every
  // worker count.  Before the exception_ptr ferry this aborted the whole
  // process via std::terminate whenever workers > 1 (an exception escaping
  // a thread's start function), so nothing downstream could catch it.
  for (int workers : {1, 2, 4, 8}) {
    try {
      (void)ParallelForEach(
          64,
          [](int i) -> int {
            if (i == 13) throw std::runtime_error("broken body");
            return i;
          },
          workers);
      FAIL() << "body exception swallowed at workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "broken body") << workers;
    }
  }
}

TEST(ParallelForEach, ExceptionStopsWorkersFromDrainingTheSweep) {
  // Once one index throws, workers stop pulling new indices: a persistent
  // failure ends the run promptly instead of burning the whole sweep.
  constexpr int kCount = 100000;
  std::atomic<int> ran{0};
  try {
    (void)ParallelForEach(
        kCount,
        [&](int) -> int {
          ran.fetch_add(1, std::memory_order_relaxed);
          throw std::runtime_error("always broken");
        },
        4);
    FAIL() << "body exception swallowed";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(ran.load(), kCount);
}

TEST(SplitTrialRngs, MatchesParallelTrialsStreams) {
  // ParallelTrials == SplitTrialRngs + ParallelForEach by construction;
  // the resilience layer depends on this decomposition staying exact.
  Rng a(21);
  Rng b(21);
  const auto body = [](int t, Rng& r) { return r.NextU64() + t; };
  const std::vector<std::uint64_t> via_trials = ParallelTrials(16, a, body, 3);
  std::vector<Rng> rngs = SplitTrialRngs(16, b);
  const std::vector<std::uint64_t> via_for_each = ParallelForEach(
      16, [&](int t) { return body(t, rngs[t]); }, 3);
  EXPECT_EQ(via_trials, via_for_each);
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(ParallelTrials, AggregatesLikeSerialLoop) {
  // A small Monte Carlo: estimate the mean of UniformDouble.
  Rng rng(11);
  const auto body = [](int, Rng& r) {
    double sum = 0;
    for (int i = 0; i < 100; ++i) sum += r.UniformDouble();
    return sum / 100;
  };
  const std::vector<double> results = ParallelTrials(200, rng, body, 8);
  const double mean =
      std::accumulate(results.begin(), results.end(), 0.0) /
      static_cast<double>(results.size());
  EXPECT_NEAR(mean, 0.5, 0.02);
}

}  // namespace
}  // namespace noisybeeps
