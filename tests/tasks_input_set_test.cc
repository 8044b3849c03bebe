#include "tasks/input_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "channel/noiseless.h"
#include "channel/one_sided.h"
#include "protocol/executor.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(InputSet, SampleStaysInRange) {
  Rng rng(1);
  for (int n : {1, 2, 5, 33}) {
    const InputSetInstance instance = SampleInputSet(n, rng);
    EXPECT_EQ(instance.num_parties(), n);
    EXPECT_EQ(instance.universe_size(), 2 * n);
    for (int x : instance.inputs) {
      EXPECT_GE(x, 0);
      EXPECT_LT(x, 2 * n);
    }
  }
}

TEST(InputSet, ExpectedOutputIsMembershipMask) {
  InputSetInstance instance;
  instance.inputs = {0, 3, 3, 5};  // n=4, universe 8
  const PartyOutput mask = InputSetExpectedOutput(instance);
  ASSERT_EQ(mask.size(), 1u);
  EXPECT_EQ(mask[0], (1u << 0) | (1u << 3) | (1u << 5));
}

TEST(InputSet, ExpectedOutputSpansMultipleWords) {
  InputSetInstance instance;
  instance.inputs.assign(40, 0);
  instance.inputs[1] = 79;  // universe 80 -> 2 words
  const PartyOutput mask = InputSetExpectedOutput(instance);
  ASSERT_EQ(mask.size(), 2u);
  EXPECT_EQ(mask[0], 1u);             // element 0
  EXPECT_EQ(mask[1], 1ull << 15);     // element 79
}

TEST(InputSet, TrivialProtocolTranscriptIsIndicator) {
  InputSetInstance instance;
  instance.inputs = {1, 4, 4};  // universe 6
  const auto protocol = MakeInputSetProtocol(instance);
  EXPECT_EQ(protocol->length(), 6);
  const BitString pi = ReferenceTranscript(*protocol);
  EXPECT_EQ(pi.ToString(), "010010");
}

TEST(InputSet, NoiselessExecutionIsCorrect) {
  Rng rng(2);
  const NoiselessChannel channel;
  for (int n : {1, 3, 8, 20}) {
    const InputSetInstance instance = SampleInputSet(n, rng);
    const auto protocol = MakeInputSetProtocol(instance);
    const ExecutionResult result = Execute(*protocol, channel, rng);
    EXPECT_TRUE(InputSetAllCorrect(instance, result.outputs)) << n;
  }
}

TEST(InputSet, RepeatedProtocolLengthScales) {
  InputSetInstance instance;
  instance.inputs = {0, 1};
  const auto protocol = MakeRepeatedInputSetProtocol(instance, 7);
  EXPECT_EQ(protocol->length(), 4 * 7);
}

TEST(InputSet, RepeatedProtocolNoiselessCorrect) {
  Rng rng(3);
  const NoiselessChannel channel;
  const InputSetInstance instance = SampleInputSet(6, rng);
  for (int r : {1, 2, 5}) {
    for (RoundDecision d :
         {RoundDecision::kMajority, RoundDecision::kAllOnes}) {
      const auto protocol = MakeRepeatedInputSetProtocol(instance, r, d);
      const ExecutionResult result = Execute(*protocol, channel, rng);
      EXPECT_TRUE(InputSetAllCorrect(instance, result.outputs));
    }
  }
}

TEST(InputSet, SingleRepetitionFailsUnderNoise) {
  // The headline phenomenon: the trivial protocol breaks immediately on a
  // one-sided 1/3 channel.
  Rng rng(4);
  const OneSidedUpChannel channel(1.0 / 3.0);
  int correct = 0;
  constexpr int kTrials = 50;
  for (int t = 0; t < kTrials; ++t) {
    const InputSetInstance instance = SampleInputSet(16, rng);
    const auto protocol = MakeInputSetProtocol(instance);
    const ExecutionResult result = Execute(*protocol, channel, rng);
    correct += InputSetAllCorrect(instance, result.outputs);
  }
  // Pr[no flip in 32 rounds] = (2/3)^{~22 zero rounds} -- essentially 0.
  EXPECT_LE(correct, 2);
}

TEST(InputSet, HeavyRepetitionSurvivesNoise) {
  Rng rng(5);
  const OneSidedUpChannel channel(1.0 / 3.0);
  int correct = 0;
  constexpr int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    const InputSetInstance instance = SampleInputSet(16, rng);
    // All-ones rule is the ML decision under one-sided-up noise.
    const auto protocol =
        MakeRepeatedInputSetProtocol(instance, 25, RoundDecision::kAllOnes);
    const ExecutionResult result = Execute(*protocol, channel, rng);
    correct += InputSetAllCorrect(instance, result.outputs);
  }
  EXPECT_GE(correct, 28);
}

TEST(InputSet, AllCorrectDetectsWrongOutput) {
  InputSetInstance instance;
  instance.inputs = {0, 1};
  std::vector<PartyOutput> outputs(2, InputSetExpectedOutput(instance));
  EXPECT_TRUE(InputSetAllCorrect(instance, outputs));
  outputs[1][0] ^= 1;
  EXPECT_FALSE(InputSetAllCorrect(instance, outputs));
}

// InputSet's BeepWords override sets only the bits of the parties whose
// input is the round's logical round; it must produce exactly what the
// base class's per-party loop produces, at every round and one past the
// end, over word-straddling party counts, with inputs shared by several
// parties, and whatever the words held before.
TEST(InputSet, BeepWordsMatchesThePerPartyDefault) {
  Rng rng(17);
  for (const int n : {1, 2, 63, 64, 65, 130}) {
    std::vector<InputSetInstance> instances(2);
    instances[0] = SampleInputSet(n, rng);
    // Every party on one of three inputs: large groups per round.
    for (int i = 0; i < n; ++i) {
      instances[1].inputs.push_back((i % 3) % (2 * n));
    }
    for (const InputSetInstance& instance : instances) {
      for (const int r : {1, 2, 3}) {
        const auto protocol =
            MakeRepeatedInputSetProtocol(instance, r, RoundDecision::kAllOnes);
        const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
        BitString prefix;
        for (int m = 0; m <= protocol->length() + 1; ++m) {
          std::vector<std::uint64_t> fast(words, 0xdeadbeefcafef00du);
          std::vector<std::uint64_t> slow(words, ~std::uint64_t{0});
          protocol->BeepWords(prefix, fast);
          protocol->Protocol::BeepWords(prefix, slow);
          ASSERT_EQ(fast, slow) << "n=" << n << " r=" << r << " m=" << m;
          const std::uint64_t tail =
              n % 64 == 0 ? 0 : ~((std::uint64_t{1} << (n % 64)) - 1);
          ASSERT_EQ(fast.back() & tail, 0u) << "n=" << n << " m=" << m;
          prefix.PushBack(rng.Bit());
        }
      }
    }
  }
}

TEST(InputSet, BeepWordsRejectsAMisSizedSpan) {
  InputSetInstance instance;
  instance.inputs = {0, 1, 2};
  const auto protocol = MakeInputSetProtocol(instance);
  std::vector<std::uint64_t> words(2, 0);
  EXPECT_THROW(protocol->BeepWords(BitString(), words), std::invalid_argument);
  EXPECT_THROW(protocol->Protocol::BeepWords(BitString(), words),
               std::invalid_argument);
}

// ComputeOutput reads the transcript a word at a time (a word copy for
// r = 1, a walk over the 1 bits otherwise).  It must decode what a bit at a
// time count of each element's rounds decodes.
PartyOutput BitLoopOutput(const BitString& pi, int universe, int r,
                          RoundDecision decision) {
  PartyOutput mask((static_cast<std::size_t>(universe) + 63) / 64, 0);
  for (int element = 0; element < universe; ++element) {
    int ones = 0;
    for (int t = 0; t < r; ++t) {
      ones += pi[static_cast<std::size_t>(element * r + t)] ? 1 : 0;
    }
    const bool member = decision == RoundDecision::kMajority ? 2 * ones >= r
                                                              : ones == r;
    if (member) mask[element / 64] |= std::uint64_t{1} << (element % 64);
  }
  return mask;
}

TEST(InputSet, ComputeOutputMatchesABitLoop) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const int n = 1 + static_cast<int>(rng.UniformInt(80));
    const InputSetInstance instance = SampleInputSet(n, rng);
    for (const int r : {1, 2, 3, 4, 5, 8, 41, 64, 65, 130}) {
      for (const RoundDecision decision :
           {RoundDecision::kMajority, RoundDecision::kAllOnes}) {
        const auto protocol =
            MakeRepeatedInputSetProtocol(instance, r, decision);
        const auto length = static_cast<std::size_t>(protocol->length());
        // Dense enough that each element's rounds take every count.
        BitString pi;
        for (std::size_t m = 0; m < length + 70; ++m) {
          pi.PushBack(rng.Bernoulli(0.6));
        }
        for (const std::size_t size : {length, length + 70}) {
          const BitString transcript = pi.Prefix(size);
          for (int i = 0; i < n; i += 7) {
            ASSERT_EQ(protocol->party(i).ComputeOutput(transcript),
                      BitLoopOutput(transcript, 2 * n, r, decision))
                << "seed=" << seed << " n=" << n << " r=" << r
                << " size=" << size;
          }
        }
        EXPECT_THROW(
            (void)protocol->party(0).ComputeOutput(pi.Prefix(length - 1)),
            std::invalid_argument);
      }
    }
  }
}

TEST(InputSetFamily, MatchesProtocolBehaviour) {
  const auto family = MakeInputSetFamily(4, 3);
  EXPECT_EQ(family->num_parties(), 4);
  EXPECT_EQ(family->num_inputs(), 8);
  EXPECT_EQ(family->length(), 24);
  // Party with input 2 beeps exactly in logical round 2 (rounds 6..8).
  const auto party = family->MakeParty(0, 2);
  BitString prefix;
  for (int m = 0; m < 24; ++m) {
    EXPECT_EQ(party->ChooseBeep(prefix), m / 3 == 2) << m;
    prefix.PushBack(false);
  }
}

TEST(InputSetFamily, ValidatesArguments) {
  const auto family = MakeInputSetFamily(3);
  EXPECT_THROW((void)family->MakeParty(3, 0), std::invalid_argument);
  EXPECT_THROW((void)family->MakeParty(0, 6), std::invalid_argument);
  EXPECT_THROW((void)MakeInputSetFamily(0), std::invalid_argument);
}

TEST(InputSet, RejectsOutOfRangeInputs) {
  InputSetInstance instance;
  instance.inputs = {5};  // universe is 2 for n=1
  EXPECT_THROW((void)MakeInputSetProtocol(instance), std::invalid_argument);
  EXPECT_THROW((void)InputSetExpectedOutput(instance), std::invalid_argument);
}

}  // namespace
}  // namespace noisybeeps
