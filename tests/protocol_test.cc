#include <gtest/gtest.h>

#include <stdexcept>

#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/noiseless.h"
#include "protocol/executor.h"
#include "protocol/protocol.h"
#include "protocol/round_engine.h"
#include "tasks/input_set.h"
#include "tasks/or_task.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

// A tiny hand-rolled party: beeps a fixed pattern regardless of transcript.
class PatternParty final : public Party {
 public:
  explicit PatternParty(BitString pattern) : pattern_(std::move(pattern)) {}
  [[nodiscard]] bool ChooseBeep(const BitString& prefix) const override {
    return pattern_[prefix.size()];
  }
  [[nodiscard]] PartyOutput ComputeOutput(const BitString& pi) const override {
    return PartyOutput{pi.PopCount()};
  }

 private:
  BitString pattern_;
};

std::unique_ptr<Protocol> PatternProtocol(
    const std::vector<std::string>& patterns) {
  std::vector<std::unique_ptr<Party>> parties;
  for (const auto& p : patterns) {
    parties.push_back(std::make_unique<PatternParty>(BitString::FromString(p)));
  }
  const int length = static_cast<int>(patterns.front().size());
  return std::make_unique<BasicProtocol>(std::move(parties), length);
}

TEST(BasicProtocol, ValidatesConstruction) {
  EXPECT_THROW(BasicProtocol({}, 3), std::invalid_argument);
  std::vector<std::unique_ptr<Party>> with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(BasicProtocol(std::move(with_null), 1), std::invalid_argument);
}

TEST(BasicProtocol, PartyIndexChecked) {
  const auto protocol = PatternProtocol({"01"});
  EXPECT_NO_THROW((void)protocol->party(0));
  EXPECT_THROW((void)protocol->party(1), std::invalid_argument);
  EXPECT_THROW((void)protocol->party(-1), std::invalid_argument);
}

TEST(ReferenceTranscript, IsTheOrOfPatterns) {
  const auto protocol = PatternProtocol({"0101", "0011", "0000"});
  EXPECT_EQ(ReferenceTranscript(*protocol).ToString(), "0111");
}

TEST(OrOfBeeps, MatchesRoundwise) {
  const auto protocol = PatternProtocol({"10", "01"});
  EXPECT_TRUE(OrOfBeeps(*protocol, BitString()));
  EXPECT_TRUE(OrOfBeeps(*protocol, BitString::FromString("1")));
}

TEST(Execute, NoiselessMatchesReference) {
  Rng rng(1);
  const auto protocol = PatternProtocol({"0101100", "0011010", "0000001"});
  const NoiselessChannel channel;
  const ExecutionResult result = Execute(*protocol, channel, rng);
  EXPECT_EQ(result.shared(), ReferenceTranscript(*protocol));
  // Every party decodes popcount of the transcript.
  for (const PartyOutput& out : result.outputs) {
    EXPECT_EQ(out, PartyOutput{result.shared().PopCount()});
  }
}

TEST(Execute, CorrelatedChannelKeepsTranscriptsEqual) {
  Rng rng(2);
  const auto protocol = PatternProtocol({"0101100", "0011010"});
  const CorrelatedNoisyChannel channel(0.4);
  const ExecutionResult result = Execute(*protocol, channel, rng);
  ASSERT_EQ(result.transcripts.size(), 2u);
  EXPECT_EQ(result.transcripts[0], result.transcripts[1]);
}

TEST(Execute, IndependentChannelCanDiverge) {
  Rng rng(3);
  // Long all-zero protocol: noise creates per-party discrepancies.
  const auto protocol = PatternProtocol(
      {std::string(200, '0'), std::string(200, '0')});
  const IndependentNoisyChannel channel(0.3);
  const ExecutionResult result = Execute(*protocol, channel, rng);
  EXPECT_NE(result.transcripts[0], result.transcripts[1]);
}

// Execute shares one transcript until the first round whose delivered bits
// differ between parties, and reports that round.
TEST(Execute, CorrelatedChannelNeverDiverges) {
  Rng rng(2);
  const auto protocol = PatternProtocol({"0101100", "0011010"});
  const CorrelatedNoisyChannel channel(0.4);
  const ExecutionResult result = Execute(*protocol, channel, rng);
  EXPECT_EQ(result.first_divergent_round, -1);
}

TEST(Execute, IndependentChannelDivergesEarly) {
  const IndependentNoisyChannel channel(0.05);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const auto protocol = MakeInputSetProtocol(SampleInputSet(65, rng));
    const ExecutionResult result = Execute(*protocol, channel, rng);
    // 65 listeners all hear a round alike with probability < 4 %.
    const int m = result.first_divergent_round;
    ASSERT_GE(m, 0);
    EXPECT_LT(m, 10);
    // Everyone agrees before round m; someone disagrees at it.
    const BitString& first = result.transcripts.front();
    bool split = false;
    for (const BitString& transcript : result.transcripts) {
      ASSERT_EQ(transcript.size(), first.size());
      for (int r = 0; r < m; ++r) ASSERT_EQ(transcript[r], first[r]);
      split = split || transcript[m] != first[m];
    }
    EXPECT_TRUE(split) << "seed " << seed;
  }
}

TEST(Execute, NoisyTranscriptFlipRate) {
  Rng rng(4);
  const auto protocol = PatternProtocol(
      {std::string(4000, '0'), std::string(4000, '0')});
  const CorrelatedNoisyChannel channel(0.25);
  const ExecutionResult result = Execute(*protocol, channel, rng);
  const double rate =
      static_cast<double>(result.shared().PopCount()) / 4000.0;
  EXPECT_NEAR(rate, 0.25, 0.03);
}

TEST(Execute, OrTaskOneRound) {
  Rng rng(5);
  const NoiselessChannel channel;
  for (const std::vector<std::uint8_t>& bits :
       std::vector<std::vector<std::uint8_t>>{
           {0, 0, 0}, {1, 0, 0}, {0, 0, 1}, {1, 1, 1}}) {
    const auto protocol = MakeOrProtocol(bits);
    const ExecutionResult result = Execute(*protocol, channel, rng);
    for (const PartyOutput& out : result.outputs) {
      EXPECT_EQ(out[0], OrExpected(bits) ? 1u : 0u);
    }
  }
}

TEST(RoundEngine, CountsRounds) {
  Rng rng(6);
  const NoiselessChannel channel;
  RoundEngine engine(channel, rng, 3);
  EXPECT_EQ(engine.rounds_used(), 0);
  const std::vector<std::uint8_t> beeps{0, 1, 0};
  (void)engine.Round(beeps);
  (void)engine.Round(beeps);
  EXPECT_EQ(engine.rounds_used(), 2);
}

TEST(RoundEngine, DeliversOrToAllParties) {
  Rng rng(7);
  const NoiselessChannel channel;
  RoundEngine engine(channel, rng, 3);
  const std::vector<std::uint8_t> silent{0, 0, 0};
  const std::vector<std::uint8_t> one_beeper{0, 0, 1};
  auto r1 = engine.Round(silent);
  for (auto b : r1) EXPECT_EQ(b, 0);
  auto r2 = engine.Round(one_beeper);
  for (auto b : r2) EXPECT_EQ(b, 1);
}

TEST(RoundEngine, ValidatesBeepVectorSize) {
  Rng rng(9);
  const NoiselessChannel channel;
  RoundEngine engine(channel, rng, 3);
  const std::vector<std::uint8_t> wrong{0, 0};
  EXPECT_THROW((void)engine.Round(wrong), std::invalid_argument);
}

TEST(Execute, AdaptivePartySeesOwnTranscript) {
  // A party that echoes the previous received bit: under a noiseless
  // channel with a 1 injected in round 0 by the other party, the echo
  // keeps the transcript all ones.
  class EchoParty final : public Party {
   public:
    [[nodiscard]] bool ChooseBeep(const BitString& prefix) const override {
      return !prefix.empty() && prefix[prefix.size() - 1];
    }
    [[nodiscard]] PartyOutput ComputeOutput(const BitString&) const override {
      return {};
    }
  };
  class KickstartParty final : public Party {
   public:
    [[nodiscard]] bool ChooseBeep(const BitString& prefix) const override {
      return prefix.empty();
    }
    [[nodiscard]] PartyOutput ComputeOutput(const BitString&) const override {
      return {};
    }
  };
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<KickstartParty>());
  parties.push_back(std::make_unique<EchoParty>());
  const BasicProtocol protocol(std::move(parties), 6);
  Rng rng(10);
  const NoiselessChannel channel;
  const ExecutionResult result = Execute(protocol, channel, rng);
  EXPECT_EQ(result.shared().ToString(), "111111");
}

}  // namespace
}  // namespace noisybeeps
