#include "coding/beep_code.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "util/math.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(BeepCode, MessageSpaceIsChunkPlusNext) {
  const BeepCode code(10, 4, 1);
  EXPECT_EQ(code.chunk_len(), 10);
  EXPECT_EQ(code.next_token(), 10u);
  EXPECT_EQ(code.codebook().num_messages(), 11u);
}

TEST(BeepCode, LengthScalesLogarithmically) {
  const BeepCode small(7, 6, 1);
  const BeepCode large(1023, 6, 1);
  EXPECT_EQ(small.codeword_length(),
            6u * (CeilLog2(8) + 1));
  EXPECT_EQ(large.codeword_length(),
            6u * (CeilLog2(1024) + 1));
  // 128x the chunk size costs only ~2.7x the bits.
  EXPECT_LT(large.codeword_length(), 3 * small.codeword_length());
}

TEST(BeepCode, RoundTripsAllMessages) {
  const BeepCode code(31, 6, 2);
  for (std::uint64_t m = 0; m <= 31; ++m) {
    EXPECT_EQ(code.Decode(code.Encode(m)), m);
  }
}

TEST(BeepCode, DeterministicInSeed) {
  const BeepCode a(15, 5, 9);
  const BeepCode b(15, 5, 9);
  for (std::uint64_t m = 0; m <= 15; ++m) {
    EXPECT_EQ(a.Encode(m), b.Encode(m));
  }
}

TEST(BeepCode, ValidatesParameters) {
  EXPECT_THROW(BeepCode(0, 4, 1), std::invalid_argument);
  EXPECT_THROW(BeepCode(4, 0, 1), std::invalid_argument);
}

class BeepCodeNoiseTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BeepCodeNoiseTest, DecodesThroughOneSidedNoise) {
  // Owner-finding sends codewords through the one-sided-up channel: 1 bits
  // arrive intact, 0 bits flip up with rate eps.  ML decoding must survive
  // at the default length factor.
  const auto [chunk_len, eps] = GetParam();
  const BeepCode code(chunk_len, 6, 3);
  Rng rng(1000 + chunk_len);
  int failures = 0;
  constexpr int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t msg = rng.UniformInt(chunk_len + 1);
    BitString word = code.Encode(msg);
    for (std::size_t i = 0; i < word.size(); ++i) {
      if (!word[i] && rng.Bernoulli(eps)) word.Set(i, true);
    }
    failures += code.Decode(word) != msg;
  }
  EXPECT_LE(failures, kTrials / 20)
      << "chunk=" << chunk_len << " eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BeepCodeNoiseTest,
    ::testing::Combine(::testing::Values(8, 64, 256),
                       ::testing::Values(0.05, 0.10)));

TEST(BeepCode, MinimumDistanceIsHealthy) {
  // Random codebooks at factor 6 should comfortably exceed L/5.
  const BeepCode code(32, 6, 4);
  EXPECT_GE(code.codebook().min_distance(), code.codeword_length() / 5);
}

TEST(BeepCode, DefaultMinimumDistancesArePinned) {
  // The rewind schemes' owner codes (seed 0x5eedbee9 + chunk_len) at
  // factor 6 (the default) and 10, chunk 8 to 1024: the d_min table of
  // docs/SCHEMES.md.  A decode is certified within (d_min - 1) / 2 flips.
  constexpr std::array<int, 8> kChunks = {8, 16, 32, 64, 128, 256, 512, 1024};
  constexpr std::array<std::size_t, 8> kFactor6 = {8,  11, 10, 11,
                                                   14, 16, 15, 16};
  constexpr std::array<std::size_t, 8> kFactor10 = {18, 18, 23, 23,
                                                    27, 31, 33, 35};
  for (std::size_t c = 0; c < kChunks.size(); ++c) {
    const auto seed = static_cast<std::uint64_t>(0x5eedbee9 + kChunks[c]);
    EXPECT_EQ(BeepCode(kChunks[c], 6, seed).codebook().min_distance(),
              kFactor6[c])
        << "chunk " << kChunks[c];
    EXPECT_EQ(BeepCode(kChunks[c], 10, seed).codebook().min_distance(),
              kFactor10[c])
        << "chunk " << kChunks[c];
  }
}

}  // namespace
}  // namespace noisybeeps
