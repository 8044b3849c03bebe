#include <gtest/gtest.h>

#include <stdexcept>

#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/noiseless.h"
#include "channel/one_sided.h"
#include "channel/shared_randomness.h"
#include "util/rng.h"
#include "util/stats.h"

namespace noisybeeps {
namespace {

// Empirical flip rate of `channel` for input bit `or_bit` over `trials`
// rounds (rate at which the delivered bit differs from the input).
double FlipRate(const Channel& channel, bool or_bit, int trials, Rng& rng) {
  std::vector<std::uint8_t> received(4, 0);
  int flips = 0;
  for (int t = 0; t < trials; ++t) {
    channel.Deliver(or_bit, received, rng);
    flips += (received[0] != 0) != or_bit;
  }
  return static_cast<double>(flips) / trials;
}

TEST(NoiselessChannel, DeliversOrExactly) {
  NoiselessChannel channel;
  Rng rng(1);
  EXPECT_TRUE(channel.is_correlated());
  EXPECT_DOUBLE_EQ(FlipRate(channel, false, 1000, rng), 0.0);
  EXPECT_DOUBLE_EQ(FlipRate(channel, true, 1000, rng), 0.0);
}

TEST(CorrelatedChannel, RejectsBadEpsilon) {
  EXPECT_THROW(CorrelatedNoisyChannel(-0.1), std::invalid_argument);
  EXPECT_THROW(CorrelatedNoisyChannel(0.5), std::invalid_argument);
  EXPECT_NO_THROW(CorrelatedNoisyChannel(0.0));
}

TEST(CorrelatedChannel, FlipRateMatchesEpsilonBothDirections) {
  const double eps = 0.2;
  CorrelatedNoisyChannel channel(eps);
  Rng rng(2);
  EXPECT_NEAR(FlipRate(channel, false, 60000, rng), eps, 0.01);
  EXPECT_NEAR(FlipRate(channel, true, 60000, rng), eps, 0.01);
}

TEST(CorrelatedChannel, AllPartiesReceiveTheSameBit) {
  CorrelatedNoisyChannel channel(0.3);
  Rng rng(3);
  std::vector<std::uint8_t> received(16, 0);
  for (int t = 0; t < 2000; ++t) {
    channel.Deliver(t % 2 == 0, received, rng);
    for (std::uint8_t b : received) EXPECT_EQ(b, received[0]);
  }
}

TEST(OneSidedUpChannel, NeverFlipsOnes) {
  OneSidedUpChannel channel(1.0 / 3.0);
  Rng rng(4);
  EXPECT_DOUBLE_EQ(FlipRate(channel, true, 20000, rng), 0.0);
}

TEST(OneSidedUpChannel, FlipsZerosAtRate) {
  const double eps = 1.0 / 3.0;
  OneSidedUpChannel channel(eps);
  Rng rng(5);
  EXPECT_NEAR(FlipRate(channel, false, 60000, rng), eps, 0.01);
}

TEST(OneSidedDownChannel, NeverFlipsZeros) {
  OneSidedDownChannel channel(0.25);
  Rng rng(6);
  EXPECT_DOUBLE_EQ(FlipRate(channel, false, 20000, rng), 0.0);
}

TEST(OneSidedDownChannel, FlipsOnesAtRate) {
  OneSidedDownChannel channel(0.25);
  Rng rng(7);
  EXPECT_NEAR(FlipRate(channel, true, 60000, rng), 0.25, 0.01);
}

TEST(IndependentChannel, IsNotCorrelated) {
  IndependentNoisyChannel channel(0.2);
  EXPECT_FALSE(channel.is_correlated());
}

TEST(IndependentChannel, PartiesReceiveIndependentCopies) {
  IndependentNoisyChannel channel(0.3);
  Rng rng(8);
  std::vector<std::uint8_t> received(2, 0);
  int disagreements = 0;
  constexpr int kTrials = 40000;
  for (int t = 0; t < kTrials; ++t) {
    channel.Deliver(false, received, rng);
    disagreements += received[0] != received[1];
  }
  // Two independent eps-noisy copies disagree with prob 2*eps*(1-eps).
  EXPECT_NEAR(static_cast<double>(disagreements) / kTrials,
              2 * 0.3 * 0.7, 0.015);
}

TEST(IndependentChannel, PerPartyFlipRateMatchesEpsilon) {
  IndependentNoisyChannel channel(0.15);
  Rng rng(9);
  std::vector<std::uint8_t> received(8, 0);
  std::vector<int> flips(8, 0);
  constexpr int kTrials = 40000;
  for (int t = 0; t < kTrials; ++t) {
    channel.Deliver(true, received, rng);
    for (int i = 0; i < 8; ++i) flips[i] += received[i] == 0;
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(static_cast<double>(flips[i]) / kTrials, 0.15, 0.01) << i;
  }
}

TEST(SharedRandomnessAdapter, PaperInstanceEmulatesQuarterNoise) {
  // A.1.2: one-sided-up 1/3 + shared 1/4 down-flip == two-sided 1/4 noise.
  const auto channel = SharedRandomnessOneSidedAdapter::PaperInstance();
  EXPECT_TRUE(channel.is_correlated());
  EXPECT_NEAR(channel.EffectiveUpRate(), 0.25, 1e-12);
  EXPECT_NEAR(channel.EffectiveDownRate(), 0.25, 1e-12);
  Rng rng(10);
  EXPECT_NEAR(FlipRate(channel, false, 80000, rng), 0.25, 0.01);
  EXPECT_NEAR(FlipRate(channel, true, 80000, rng), 0.25, 0.01);
}

TEST(SharedRandomnessAdapter, BalancedRateFormula) {
  // flip = eps/(1+eps) equalizes the two directions.
  const double up = 0.2;
  const double flip = up / (1.0 + up);
  const SharedRandomnessOneSidedAdapter channel(up, flip);
  EXPECT_NEAR(channel.EffectiveUpRate(), channel.EffectiveDownRate(), 1e-12);
}

TEST(SharedRandomnessAdapter, StaysCorrelated) {
  const auto channel = SharedRandomnessOneSidedAdapter::PaperInstance();
  Rng rng(11);
  std::vector<std::uint8_t> received(8, 0);
  for (int t = 0; t < 2000; ++t) {
    channel.Deliver(t % 2 == 0, received, rng);
    for (std::uint8_t b : received) EXPECT_EQ(b, received[0]);
  }
}

}  // namespace
}  // namespace noisybeeps
