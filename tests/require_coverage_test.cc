// Negative tests for every NB_REQUIRE failure path documented on public
// constructors and factories: each API that documents a precondition and
// std::invalid_argument must actually throw it.  nblint's
// require-precondition rule checks the NB_REQUIRE is present; these tests
// check it fires.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "channel/adversary.h"
#include "channel/burst.h"
#include "channel/collision.h"
#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/one_sided.h"
#include "channel/shared_randomness.h"
#include "coding/beep_code.h"
#include "coding/repetition_sim.h"
#include "ecc/codebook.h"
#include "ecc/concatenated.h"
#include "ecc/hadamard.h"
#include "ecc/interleaved.h"
#include "ecc/reed_solomon.h"
#include "ecc/repetition.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

// --- channel constructors --------------------------------------------------

TEST(RequireCoverage, IndependentNoisyChannelRejectsBadEpsilon) {
  EXPECT_THROW(IndependentNoisyChannel(-0.01), std::invalid_argument);
  EXPECT_THROW(IndependentNoisyChannel(0.5), std::invalid_argument);
  EXPECT_NO_THROW(IndependentNoisyChannel(0.0));
  EXPECT_NO_THROW(IndependentNoisyChannel(0.49));
}

TEST(RequireCoverage, CorrelatedNoisyChannelRejectsBadEpsilon) {
  EXPECT_THROW(CorrelatedNoisyChannel(-0.01), std::invalid_argument);
  EXPECT_THROW(CorrelatedNoisyChannel(0.5), std::invalid_argument);
  EXPECT_NO_THROW(CorrelatedNoisyChannel(0.0));
}

TEST(RequireCoverage, OneSidedChannelsRejectBadEpsilon) {
  EXPECT_THROW(OneSidedUpChannel(-0.01), std::invalid_argument);
  EXPECT_THROW(OneSidedUpChannel(1.0), std::invalid_argument);
  EXPECT_THROW(OneSidedDownChannel(-0.01), std::invalid_argument);
  EXPECT_THROW(OneSidedDownChannel(1.0), std::invalid_argument);
  EXPECT_NO_THROW(OneSidedUpChannel(0.99));
  EXPECT_NO_THROW(OneSidedDownChannel(0.0));
}

TEST(RequireCoverage, CollisionChannelRejectsBadEpsilon) {
  EXPECT_THROW(CollisionAsSilenceChannel(-0.01), std::invalid_argument);
  EXPECT_THROW(CollisionAsSilenceChannel(0.5), std::invalid_argument);
  EXPECT_NO_THROW(CollisionAsSilenceChannel(0.0));
}

TEST(RequireCoverage, AdversarialChannelRejectsBadEpsilon) {
  EXPECT_THROW(
      AdversarialCorrectionChannel(-0.01, CorrectionPolicy::kNever),
      std::invalid_argument);
  EXPECT_THROW(
      AdversarialCorrectionChannel(0.5, CorrectionPolicy::kCorrectAll),
      std::invalid_argument);
  EXPECT_NO_THROW(
      AdversarialCorrectionChannel(0.2, CorrectionPolicy::kCorrectDrops));
}

TEST(RequireCoverage, SharedRandomnessAdapterRejectsBadRates) {
  EXPECT_THROW(SharedRandomnessOneSidedAdapter(-0.1, 0.1),
               std::invalid_argument);
  EXPECT_THROW(SharedRandomnessOneSidedAdapter(1.0, 0.1),
               std::invalid_argument);
  EXPECT_THROW(SharedRandomnessOneSidedAdapter(0.1, -0.1),
               std::invalid_argument);
  EXPECT_THROW(SharedRandomnessOneSidedAdapter(0.1, 1.0),
               std::invalid_argument);
  EXPECT_NO_THROW(SharedRandomnessOneSidedAdapter(0.1, 0.1));
}

TEST(RequireCoverage, BurstChannelRejectsBadParameters) {
  // Rates must be in [0, 1); transition probabilities in (0, 1].
  EXPECT_THROW(BurstNoisyChannel(-0.1, 0.3, 0.1, 0.5),
               std::invalid_argument);
  EXPECT_THROW(BurstNoisyChannel(0.1, 1.0, 0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(BurstNoisyChannel(0.1, 0.3, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(BurstNoisyChannel(0.1, 0.3, 0.1, 1.5), std::invalid_argument);
  EXPECT_NO_THROW(BurstNoisyChannel(0.01, 0.4, 0.05, 0.2));
}

// --- ECC parameter validation ----------------------------------------------

TEST(RequireCoverage, RepetitionCodeRejectsZeroRepetitions) {
  EXPECT_THROW(RepetitionCode(0), std::invalid_argument);
  EXPECT_NO_THROW(RepetitionCode(1));
}

TEST(RequireCoverage, HadamardCodeRejectsBadMessageBits) {
  EXPECT_THROW(HadamardCode(0), std::invalid_argument);
  EXPECT_THROW(HadamardCode(21), std::invalid_argument);
  EXPECT_NO_THROW(HadamardCode(1));
  EXPECT_NO_THROW(HadamardCode(8));
}

TEST(RequireCoverage, ReedSolomonRejectsBadSymbolCounts) {
  EXPECT_THROW(ReedSolomon(10, 0), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(10, 10), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(256, 10), std::invalid_argument);
  EXPECT_NO_THROW(ReedSolomon(255, 223));
}

TEST(RequireCoverage, InterleavedCodeRejectsBadArguments) {
  const auto inner = std::make_shared<const HadamardCode>(4);
  EXPECT_THROW(InterleavedCode(nullptr, 2), std::invalid_argument);
  EXPECT_THROW(InterleavedCode(inner, 0), std::invalid_argument);
  EXPECT_NO_THROW(InterleavedCode(inner, 3));
}

TEST(RequireCoverage, ConcatenatedCodeRejectsNonByteInnerCode) {
  // The inner code must carry exactly 256 messages (one per RS symbol).
  EXPECT_THROW(
      ConcatenatedCode(ReedSolomon(10, 5),
                       std::make_shared<const HadamardCode>(4)),
      std::invalid_argument);
  EXPECT_NO_THROW(
      ConcatenatedCode(ReedSolomon(10, 5),
                       std::make_shared<const HadamardCode>(8)));
}

TEST(RequireCoverage, CodebookCodeRejectsDegenerateCodebooks) {
  EXPECT_THROW(CodebookCode(std::vector<BitString>{}),
               std::invalid_argument);
  EXPECT_THROW(CodebookCode({BitString({1, 0})}), std::invalid_argument);
  EXPECT_THROW(CodebookCode({BitString({1, 0}), BitString({1})}),
               std::invalid_argument);
  EXPECT_THROW(CodebookCode({BitString({1, 0}), BitString({1, 0})}),
               std::invalid_argument);
  EXPECT_NO_THROW(CodebookCode({BitString({1, 0}), BitString({0, 1})}));
}

TEST(RequireCoverage, CodebookCodePackedAccessRejectsBadArguments) {
  // 70-bit codewords: two packed words each.
  const CodebookCode code = CodebookCode::Random(4, 70, 1);
  EXPECT_THROW((void)code.CodewordWords(4), std::invalid_argument);
  EXPECT_NO_THROW((void)code.CodewordWords(3));
  const std::vector<std::uint64_t> one_word(1, 0);
  const std::vector<std::uint64_t> two_words(2, 0);
  EXPECT_THROW((void)code.DecodeWords(one_word), std::invalid_argument);
  EXPECT_NO_THROW((void)code.DecodeWords(two_words));
}

TEST(RequireCoverage, BeepCodeRejectsBadParameters) {
  EXPECT_THROW(BeepCode(0, 6, 1), std::invalid_argument);
  EXPECT_THROW(BeepCode(8, 0, 1), std::invalid_argument);
  EXPECT_NO_THROW(BeepCode(8, 6, 1));
}

// --- simulators / parallel sweep -------------------------------------------

TEST(RequireCoverage, RepetitionSimulatorRejectsBadOptions) {
  EXPECT_THROW(RepetitionSimulator(RepetitionSimOptions{.rep_factor = -1}),
               std::invalid_argument);
}

TEST(RequireCoverage, ParallelTrialsRejectsNegativeCounts) {
  Rng rng(1);
  const auto body = [](int t, Rng&) { return t; };
  EXPECT_THROW((void)ParallelTrials(-1, rng, body), std::invalid_argument);
  EXPECT_THROW((void)ParallelTrials(4, rng, body, -1),
               std::invalid_argument);
  EXPECT_NO_THROW((void)ParallelTrials(4, rng, body, 0));
}

}  // namespace
}  // namespace noisybeeps
