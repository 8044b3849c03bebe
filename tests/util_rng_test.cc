#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

namespace noisybeeps {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(Rng, UniformIntZeroBoundThrows) {
  Rng rng(4);
  EXPECT_THROW(rng.UniformInt(0), std::invalid_argument);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(5);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.UniformInt(kBuckets)];
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], expected, 5 * std::sqrt(expected)) << b;
  }
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(6);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesRate) {
  Rng rng(7);
  for (double p : {0.0, 0.1, 0.333, 0.5, 0.9, 1.0}) {
    int hits = 0;
    constexpr int kSamples = 40000;
    for (int i = 0; i < kSamples; ++i) hits += rng.Bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / kSamples, p, 0.01) << p;
  }
}

TEST(Rng, BernoulliRejectsOutOfRange) {
  Rng rng(8);
  EXPECT_THROW(rng.Bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW(rng.Bernoulli(1.1), std::invalid_argument);
}

TEST(Rng, BitIsBalanced) {
  Rng rng(9);
  int ones = 0;
  for (int i = 0; i < 40000; ++i) ones += rng.Bit();
  EXPECT_NEAR(ones / 40000.0, 0.5, 0.01);
}

TEST(Rng, SplitProducesDecorrelatedStream) {
  Rng parent(10);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.NextU64() == child.NextU64();
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(11);
  Rng b(11);
  Rng ca = a.Split();
  Rng cb = b.Split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(ca.NextU64(), cb.NextU64());
}

TEST(Rng, SaveRestoreResumesIdenticalStream) {
  Rng rng(77);
  for (int i = 0; i < 13; ++i) (void)rng.NextU64();  // mid-stream state
  const std::array<std::uint64_t, 4> state = rng.SaveState();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(rng.NextU64());
  Rng restored = Rng::Restore(state);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(restored.NextU64(), expected[i]);
  // Splits resume identically too (checkpoint/resume depends on this).
  Rng again = Rng::Restore(state);
  Rng child_a = Rng::Restore(state).Split();
  Rng child_b = again.Split();
  EXPECT_EQ(child_a.NextU64(), child_b.NextU64());
}

TEST(Rng, RestoreRejectsAllZeroState) {
  EXPECT_THROW((void)Rng::Restore({0, 0, 0, 0}), std::invalid_argument);
}

TEST(Rng, NoShortCycles) {
  Rng rng(12);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(rng.NextU64()).second) << "cycle at " << i;
  }
}

// The p values the fixed-point threshold must get exactly right: the
// endpoints, subnormal-adjacent values, values just below/above exactly
// representable thresholds, and a spread of "ordinary" rates.
std::vector<double> ThresholdSweep() {
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> ps = {
      0.0,
      denorm,                            // smallest positive double
      2.0 * denorm,
      std::numeric_limits<double>::min(),  // smallest normal
      1e-300,
      0x1.0p-53,                         // exactly one 53-bit grain
      std::nextafter(0x1.0p-53, 0.0),
      std::nextafter(0x1.0p-53, 1.0),
      1e-9,
      0.1,
      1.0 / 3.0,
      0.25,
      std::nextafter(0.25, 0.0),
      std::nextafter(0.25, 1.0),
      0.5,
      0.75,
      0.9,
      std::nextafter(1.0, 0.0),          // largest double below 1
      1.0,
  };
  return ps;
}

TEST(Rng, BernoulliThresholdAgreesWithDoubleCompareForAllGrains) {
  // For every p in the sweep and every interesting 53-bit draw k, the
  // integer compare k < t(p) must agree with the historical double
  // compare k * 2^-53 < p.  The ks probe both sides of the threshold and
  // both ends of the draw range.
  constexpr std::uint64_t kMaxDraw = (1ULL << 53) - 1;
  for (double p : ThresholdSweep()) {
    const std::uint64_t t = BernoulliThreshold(p);
    ASSERT_LE(t, 1ULL << 53) << p;
    std::vector<std::uint64_t> ks = {0, 1, 2, kMaxDraw - 1, kMaxDraw};
    for (std::uint64_t around : {t}) {
      for (std::uint64_t delta : {0ULL, 1ULL, 2ULL}) {
        if (around >= delta) ks.push_back(around - delta);
        if (around + delta <= kMaxDraw) ks.push_back(around + delta);
      }
    }
    for (std::uint64_t k : ks) {
      const bool fixed_point = k < t;
      const bool reference = std::ldexp(static_cast<double>(k), -53) < p;
      EXPECT_EQ(fixed_point, reference) << "p=" << p << " k=" << k;
    }
  }
}

TEST(Rng, BernoulliIsBitIdenticalToUniformDoublePath) {
  // Stream-level property: Rng::Bernoulli must produce exactly the
  // decisions the historical `UniformDouble() < p` path produced, from
  // the same generator state, for every p and seed.
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    for (double p : ThresholdSweep()) {
      Rng historical(seed);
      Rng fixed_point(seed);
      for (int i = 0; i < 512; ++i) {
        const bool reference = historical.UniformDouble() < p;
        EXPECT_EQ(fixed_point.Bernoulli(p), reference)
            << "seed=" << seed << " p=" << p << " draw=" << i;
      }
    }
  }
}

TEST(Rng, BernoulliSamplerIsBitIdenticalToBernoulli) {
  for (std::uint64_t seed : {7ULL, 123456789ULL}) {
    for (double p : ThresholdSweep()) {
      const BernoulliSampler sampler(p);
      EXPECT_EQ(sampler.p(), p);
      EXPECT_EQ(sampler.threshold(), BernoulliThreshold(p));
      Rng direct(seed);
      Rng sampled(seed);
      for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(sampler.Sample(sampled), direct.Bernoulli(p))
            << "seed=" << seed << " p=" << p << " draw=" << i;
      }
      // Both paths consumed the same number of draws.
      EXPECT_EQ(sampled.NextU64(), direct.NextU64());
    }
  }
}

TEST(Rng, BernoulliThresholdEndpoints) {
  EXPECT_EQ(BernoulliThreshold(0.0), 0u);
  EXPECT_EQ(BernoulliThreshold(1.0), 1ULL << 53);
  // The smallest positive double still gets a nonzero threshold (it must
  // be able to fire), and probabilities below one grain round up.
  EXPECT_EQ(BernoulliThreshold(std::numeric_limits<double>::denorm_min()),
            1u);
  EXPECT_EQ(BernoulliThreshold(0x1.0p-53), 1u);
  EXPECT_EQ(BernoulliThreshold(0.5), 1ULL << 52);
  EXPECT_THROW((void)BernoulliThreshold(-0.1), std::invalid_argument);
  EXPECT_THROW((void)BernoulliThreshold(1.5), std::invalid_argument);
  EXPECT_THROW(BernoulliSampler(2.0), std::invalid_argument);
}

}  // namespace
}  // namespace noisybeeps

