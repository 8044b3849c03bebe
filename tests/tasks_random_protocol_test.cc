#include "tasks/random_protocol.h"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/correlated.h"
#include "channel/noiseless.h"
#include "coding/rewind_sim.h"
#include "protocol/executor.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(RandomProtocol, DeterministicGivenSeeds) {
  Rng rng(1);
  const RandomProtocolSpec spec = SampleRandomProtocol(6, 50, 0.2, true, rng);
  const auto a = MakeRandomProtocol(spec);
  const auto b = MakeRandomProtocol(spec);
  EXPECT_EQ(ReferenceTranscript(*a), ReferenceTranscript(*b));
}

TEST(RandomProtocol, DensityControlsTranscriptWeight) {
  Rng rng(2);
  // With n parties each beeping at rate d, a round is 1 w.p. 1-(1-d)^n.
  for (double density : {0.02, 0.1, 0.5}) {
    const RandomProtocolSpec spec =
        SampleRandomProtocol(8, 2000, density, true, rng);
    const auto protocol = MakeRandomProtocol(spec);
    const BitString pi = ReferenceTranscript(*protocol);
    // Quantization to 1/256 shifts the effective rate slightly.
    const double quantized = static_cast<int>(density * 256) / 256.0;
    const double expected = 1.0 - std::pow(1.0 - quantized, 8);
    const double observed = static_cast<double>(pi.PopCount()) /
                            static_cast<double>(pi.size());
    EXPECT_NEAR(observed, expected, 0.05) << density;
  }
}

TEST(RandomProtocol, AdaptiveBeepsReactToPrefix) {
  Rng rng(3);
  const RandomProtocolSpec spec =
      SampleRandomProtocol(1, 64, 0.5, true, rng);
  const auto protocol = MakeRandomProtocol(spec);
  // Same round, two different prefixes: the decisions must differ for
  // SOME round (overwhelmingly likely at density 1/2 over 64 rounds).
  BitString zeros(16);
  BitString ones;
  for (int i = 0; i < 16; ++i) ones.PushBack(true);
  int differences = 0;
  for (int m = 0; m < 48; ++m) {
    zeros.PushBack(false);
    ones.PushBack(false);
    if (protocol->party(0).ChooseBeep(zeros) !=
        protocol->party(0).ChooseBeep(ones)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 5);
}

TEST(RandomProtocol, ObliviousBeepsIgnorePrefix) {
  Rng rng(4);
  const RandomProtocolSpec spec =
      SampleRandomProtocol(1, 64, 0.5, false, rng);
  const auto protocol = MakeRandomProtocol(spec);
  BitString zeros(16);
  BitString ones;
  for (int i = 0; i < 16; ++i) ones.PushBack(true);
  for (int m = 0; m < 48; ++m) {
    zeros.PushBack(false);
    ones.PushBack(false);
    EXPECT_EQ(protocol->party(0).ChooseBeep(zeros),
              protocol->party(0).ChooseBeep(ones))
        << m;
  }
}

TEST(RandomProtocol, OutputDigestDetectsTranscriptCorruption) {
  Rng rng(5);
  const RandomProtocolSpec spec = SampleRandomProtocol(4, 40, 0.2, true, rng);
  const auto protocol = MakeRandomProtocol(spec);
  const BitString reference = ReferenceTranscript(*protocol);
  BitString corrupted = reference;
  corrupted.Set(17, !corrupted[17]);
  EXPECT_NE(TranscriptDigest(reference), TranscriptDigest(corrupted));
  EXPECT_EQ(protocol->party(0).ComputeOutput(reference)[0],
            TranscriptDigest(reference));
}

class RandomProtocolSimTest
    : public ::testing::TestWithParam<std::tuple<double, bool>> {};

TEST_P(RandomProtocolSimTest, RewindReconstructsArbitraryProtocols) {
  // The Theorem 1.2 quantifier, fuzz-style: the rewind scheme must
  // reconstruct pseudorandom protocols of any density and adaptivity.
  const auto [density, adaptive] = GetParam();
  Rng rng(600 + static_cast<int>(density * 100) + (adaptive ? 7 : 0));
  const CorrelatedNoisyChannel channel(0.05);
  const RewindSimulator sim;
  int correct = 0;
  constexpr int kTrials = 8;
  for (int t = 0; t < kTrials; ++t) {
    const RandomProtocolSpec spec =
        SampleRandomProtocol(10, 40, density, adaptive, rng);
    const auto protocol = MakeRandomProtocol(spec);
    const SimulationResult result = sim.Simulate(*protocol, channel, rng);
    correct += !result.budget_exhausted() &&
               result.AllMatch(ReferenceTranscript(*protocol));
  }
  EXPECT_GE(correct, kTrials - 1)
      << "density=" << density << " adaptive=" << adaptive;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RandomProtocolSimTest,
    ::testing::Combine(::testing::Values(0.02, 0.1, 0.3, 0.7),
                       ::testing::Bool()));

TEST(RandomProtocol, ValidatesParameters) {
  Rng rng(6);
  EXPECT_THROW((void)SampleRandomProtocol(0, 10, 0.1, true, rng),
               std::invalid_argument);
  EXPECT_THROW((void)SampleRandomProtocol(2, 10, 1.5, true, rng),
               std::invalid_argument);
  EXPECT_THROW((void)MakeRandomProtocol(RandomProtocolSpec{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace noisybeeps
