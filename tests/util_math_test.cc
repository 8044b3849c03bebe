#include "util/math.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(CeilLog2, SmallValues) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(4), 2);
  EXPECT_EQ(CeilLog2(5), 3);
  EXPECT_EQ(CeilLog2(1024), 10);
  EXPECT_EQ(CeilLog2(1025), 11);
  EXPECT_THROW((void)CeilLog2(0), std::invalid_argument);
}

static_assert(WordPopCount(0) == 0);
static_assert(WordPopCount(~std::uint64_t{0}) == 64);

TEST(WordPopCount, MatchesStdPopcount) {
  EXPECT_EQ(WordPopCount(0), std::popcount(std::uint64_t{0}));
  EXPECT_EQ(WordPopCount(~std::uint64_t{0}), 64);
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t bit = std::uint64_t{1} << b;
    EXPECT_EQ(WordPopCount(bit), 1) << b;
    EXPECT_EQ(WordPopCount(~bit), 63) << b;
  }
  Rng rng(5);
  for (int t = 0; t < 10000; ++t) {
    // Sparse, dense and uniform words.
    std::uint64_t word = rng.NextU64();
    if (t % 3 == 1) word &= rng.NextU64() & rng.NextU64();
    if (t % 3 == 2) word |= rng.NextU64() | rng.NextU64();
    ASSERT_EQ(WordPopCount(word), std::popcount(word)) << std::hex << word;
  }
}

TEST(FloorLog2, SmallValues) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(4), 2);
  EXPECT_EQ(FloorLog2(1023), 9);
  EXPECT_THROW((void)FloorLog2(0), std::invalid_argument);
}

TEST(CeilFloorLog2, ConsistencyProperty) {
  for (std::uint64_t x = 1; x < 5000; ++x) {
    const int c = CeilLog2(x);
    const int f = FloorLog2(x);
    EXPECT_LE(f, c);
    EXPECT_LE(c - f, 1);
    EXPECT_GE(std::uint64_t{1} << c, x);
    EXPECT_LE(std::uint64_t{1} << f, x);
  }
}

TEST(Majority, BasicVotes) {
  const std::vector<std::uint8_t> all_ones{1, 1, 1};
  const std::vector<std::uint8_t> mixed{1, 0, 0};
  const std::vector<std::uint8_t> tie{1, 0};
  EXPECT_TRUE(Majority(all_ones));
  EXPECT_FALSE(Majority(mixed));
  EXPECT_TRUE(Majority(tie));  // documented tie-break to 1
  EXPECT_THROW((void)Majority({}), std::invalid_argument);
}

TEST(BinomialUpperTail, BoundaryCases) {
  EXPECT_DOUBLE_EQ(BinomialUpperTail(10, 0.3, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialUpperTail(10, 0.3, 11), 0.0);
  EXPECT_NEAR(BinomialUpperTail(10, 0.0, 1), 0.0, 1e-12);
  EXPECT_NEAR(BinomialUpperTail(10, 1.0, 10), 1.0, 1e-9);
}

TEST(BinomialUpperTail, MatchesDirectComputation) {
  // Pr[Bin(4, 1/2) >= 2] = 11/16.
  EXPECT_NEAR(BinomialUpperTail(4, 0.5, 2), 11.0 / 16.0, 1e-12);
  // Pr[Bin(3, 1/3) >= 3] = 1/27.
  EXPECT_NEAR(BinomialUpperTail(3, 1.0 / 3.0, 3), 1.0 / 27.0, 1e-12);
}

TEST(BinomialUpperTail, MonotoneInThreshold) {
  double prev = 1.1;
  for (int k = 0; k <= 20; ++k) {
    const double tail = BinomialUpperTail(20, 0.3, k);
    EXPECT_LE(tail, prev + 1e-12);
    prev = tail;
  }
}

TEST(Log2Binomial, KnownValues) {
  EXPECT_NEAR(Log2Binomial(4, 2), std::log2(6.0), 1e-9);
  EXPECT_NEAR(Log2Binomial(10, 0), 0.0, 1e-9);
  EXPECT_NEAR(Log2Binomial(10, 10), 0.0, 1e-9);
  EXPECT_NEAR(Log2Binomial(52, 5), std::log2(2598960.0), 1e-6);
}

TEST(LemmaB7, SlackIsNonNegative) {
  // Lemma B.7: (sum a)^2 / (sum b) <= sum a^2/b.
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const int k = 1 + static_cast<int>(rng.UniformInt(20));
    std::vector<double> a(k);
    std::vector<double> b(k);
    for (int i = 0; i < k; ++i) {
      a[i] = rng.UniformDouble() * 10 + 1e-6;
      b[i] = rng.UniformDouble() * 10 + 1e-6;
    }
    EXPECT_GE(LemmaB7Slack(a, b), -1e-9);
  }
}

TEST(LemmaB7, TightWhenProportional) {
  // Equality in Cauchy-Schwarz when a_i proportional to b_i.
  const std::vector<double> a{2.0, 4.0, 6.0};
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_NEAR(LemmaB7Slack(a, b), 0.0, 1e-9);
}

TEST(LemmaB7, RejectsBadArguments) {
  const std::vector<double> a{1.0};
  const std::vector<double> bad_b{0.0};
  EXPECT_THROW((void)LemmaB7Slack(a, bad_b), std::invalid_argument);
  EXPECT_THROW((void)LemmaB7Slack({}, {}), std::invalid_argument);
}

TEST(CountUniqueElements, Basic) {
  const std::vector<std::uint64_t> values{1, 2, 2, 3, 4, 4, 4, 5};
  EXPECT_EQ(CountUniqueElements(values), 3u);  // 1, 3, 5
  EXPECT_EQ(CountUniqueElements({}), 0u);
}

TEST(LemmaB8, BoundHoldsEmpirically) {
  // Pr[|I| <= k/3] <= (3/2)(1 - e^{-k/|S|}) for k iid uniform draws from S.
  Rng rng(22);
  for (const auto& [k, set_size] : std::vector<std::pair<int, int>>{
           {8, 16}, {16, 32}, {32, 64}, {64, 128}}) {
    int bad = 0;
    constexpr int kTrials = 2000;
    std::vector<std::uint64_t> values(k);
    for (int t = 0; t < kTrials; ++t) {
      for (int i = 0; i < k; ++i) values[i] = rng.UniformInt(set_size);
      if (3 * CountUniqueElements(values) <= static_cast<std::size_t>(k)) {
        ++bad;
      }
    }
    const double empirical = static_cast<double>(bad) / kTrials;
    const double bound = LemmaB8Bound(k, set_size);
    EXPECT_LE(empirical, bound + 0.02) << "k=" << k << " |S|=" << set_size;
  }
}

TEST(LemmaB8, BoundFormula) {
  EXPECT_NEAR(LemmaB8Bound(10, 10), 1.5 * (1 - std::exp(-1.0)), 1e-12);
  EXPECT_THROW((void)LemmaB8Bound(1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace noisybeeps
