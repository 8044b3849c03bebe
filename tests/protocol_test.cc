#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/noiseless.h"
#include "fault/fault_plan.h"
#include "fault/injection.h"
#include "protocol/executor.h"
#include "protocol/protocol.h"
#include "protocol/round_engine.h"
#include "tasks/input_set.h"
#include "tasks/or_task.h"
#include "tasks/random_protocol.h"
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

// ExtendTranscripts' seams.  A run of [0, T) split into consecutive calls
// of 1, 7 and T - 8 rounds is one Execute: the same transcripts, rounds and
// draws.  Only the call in which the shared transcript splits reports the
// divergent round.
struct SeamCase {
  std::string name;
  bool adaptive;       // the random task; otherwise InputSet
  bool independent;    // the independent channel at 0.3; else correlated
  const char* faults;  // fault plan ("" = none)
  int reps;
  int split_call;  // the call that reports the divergent round (-1 = none)
};

std::ostream& operator<<(std::ostream& os, const SeamCase& c) {
  return os << c.name;
}

std::unique_ptr<Protocol> SeamProtocol(const SeamCase& c, Rng& rng) {
  if (c.adaptive) {
    return MakeRandomProtocol(SampleRandomProtocol(16, 64, 0.1, true, rng));
  }
  return MakeInputSetProtocol(SampleInputSet(65, rng));
}

std::unique_ptr<Channel> SeamChannel(const SeamCase& c) {
  if (c.independent) return std::make_unique<IndependentNoisyChannel>(0.3);
  return std::make_unique<CorrelatedNoisyChannel>(0.05);
}

class ExtendTranscriptsSeams : public ::testing::TestWithParam<SeamCase> {};

TEST_P(ExtendTranscriptsSeams, SplitCallsAreOneExecute) {
  const SeamCase& c = GetParam();
  const std::unique_ptr<Channel> channel = SeamChannel(c);
  const FaultPlan plan = FaultPlan::Parse(c.faults, 11);

  Rng expected_rng(7);
  const std::unique_ptr<Protocol> protocol = SeamProtocol(c, expected_rng);
  const int n = protocol->num_parties();
  const int length = protocol->length();
  Rng rng = expected_rng;
  FaultyRoundEngine expected_engine(*channel, expected_rng, n, plan);
  const ExecutionResult expected =
      Execute(*protocol, expected_engine, c.reps);

  FaultyRoundEngine engine(*channel, rng, n, plan);
  PerParty<BitString> transcripts(static_cast<std::size_t>(n));
  std::vector<int> divergent_rounds;
  for (const int rounds : {1, 7, length - 8}) {
    divergent_rounds.push_back(
        ExtendTranscripts(*protocol, engine, c.reps, rounds, transcripts));
  }
  EXPECT_EQ(transcripts, expected.transcripts);
  EXPECT_EQ(engine.rounds_used(), expected_engine.rounds_used());
  EXPECT_EQ(rng.SaveState(), expected_rng.SaveState());

  // The call in which the transcripts split reports Execute's divergent
  // round; every other call reports none.
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(divergent_rounds[call],
              call == c.split_call ? expected.first_divergent_round : -1)
        << "call " << call;
  }
  EXPECT_EQ(expected.first_divergent_round < 0, c.split_call < 0);
}

// Where the shared transcript splits: never on the correlated channel; in
// the first call (round 0) on the independent channel, where the parties'
// majorities over 0.3 noise disagree at once; and, under the receive fault,
// in the last call (round 20) at reps = 1 and in the middle one (round 7)
// at reps = 3, where noisy round 20 falls in protocol round 6.
INSTANTIATE_TEST_SUITE_P(
    Engines, ExtendTranscriptsSeams,
    ::testing::Values(
        SeamCase{"correlated", false, false, "", 1, -1},
        SeamCase{"correlated_reps3", false, false, "", 3, -1},
        SeamCase{"independent", false, true, "", 1, 0},
        SeamCase{"independent_adaptive", true, true, "", 1, 0},
        SeamCase{"sleepy", false, false, "sleepy:2@20-600", 1, 2},
        SeamCase{"sleepy_reps3", false, false, "sleepy:2@20-600", 3, 1},
        SeamCase{"sleepy_adaptive", true, false, "sleepy:2@20-600", 1, 2}),
    [](const ::testing::TestParamInfo<SeamCase>& case_info) {
      return case_info.param.name;
    });

// Beeps the last bit it received (0 on an empty transcript).
class EchoParty final : public Party {
 public:
  [[nodiscard]] bool ChooseBeep(const BitString& prefix) const override {
    return !prefix.empty() && prefix[prefix.size() - 1];
  }
  [[nodiscard]] PartyOutput ComputeOutput(const BitString&) const override {
    return {};
  }
};

std::unique_ptr<Protocol> EchoProtocol(int n, int length) {
  std::vector<std::unique_ptr<Party>> parties;
  for (int i = 0; i < n; ++i) parties.push_back(std::make_unique<EchoParty>());
  return std::make_unique<BasicProtocol>(std::move(parties), length);
}

// Entered with split transcripts, every party decides on its own prefix
// from the first round: party 1 echoes its own last bit, 1, where party
// 0's transcript would have it beep 0.
TEST(ExtendTranscripts, UnequalTranscriptsDecideOnTheirOwnPrefixes) {
  const std::unique_ptr<Protocol> protocol = EchoProtocol(3, 6);
  Rng rng(3);
  const NoiselessChannel channel;
  RoundEngine engine(channel, rng, 3);
  PerParty<BitString> transcripts = {BitString::FromString("10"),
                                     BitString::FromString("01"),
                                     BitString::FromString("00")};
  std::vector<BitString> beeped(3, BitString::FromString("1"));
  EXPECT_EQ(ExtendTranscripts(*protocol, engine, 1, 4, transcripts, &beeped),
            -1);
  EXPECT_EQ(engine.rounds_used(), 4);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(transcripts[i].size(), 6u);
    ASSERT_EQ(beeped[i].size(), 5u);
    EXPECT_TRUE(beeped[i][0]) << "the record is appended to";
    for (int m = 0; m < 4; ++m) {
      EXPECT_EQ(beeped[i][1 + m],
                protocol->party(i).ChooseBeep(transcripts[i].Prefix(2 + m)))
          << "party " << i << " round " << m;
    }
  }
  EXPECT_EQ(beeped[0].ToString(), "10111");
  EXPECT_EQ(beeped[1].ToString(), "11111");
  EXPECT_EQ(transcripts[0].ToString(), "101111");
}

// One party never splits: its majority is the shared bit even on the
// independent channel.  Its beep record matches its beep function.
TEST(ExtendTranscripts, OnePartyNeverDiverges) {
  Rng rng(4);
  const std::unique_ptr<Protocol> protocol =
      MakeRandomProtocol(SampleRandomProtocol(1, 40, 0.3, true, rng));
  const IndependentNoisyChannel channel(0.3);
  Rng expected_rng = rng;
  RoundEngine expected_engine(channel, expected_rng, 1);
  const ExecutionResult expected = Execute(*protocol, expected_engine, 3);

  RoundEngine engine(channel, rng, 1);
  PerParty<BitString> transcripts(1);
  std::vector<BitString> beeped(1);
  EXPECT_EQ(ExtendTranscripts(*protocol, engine, 3, 40, transcripts, &beeped),
            -1);
  EXPECT_EQ(expected.first_divergent_round, -1);
  EXPECT_EQ(transcripts, expected.transcripts);
  EXPECT_EQ(rng.SaveState(), expected_rng.SaveState());
  for (int m = 0; m < 40; ++m) {
    EXPECT_EQ(beeped[0][m],
              protocol->party(0).ChooseBeep(transcripts[0].Prefix(m)));
  }
}

// Zero rounds run nothing, whether the transcripts enter equal or not.
TEST(ExtendTranscripts, ZeroRoundsChangeNothing) {
  const std::unique_ptr<Protocol> protocol = EchoProtocol(2, 4);
  Rng rng(5);
  const CorrelatedNoisyChannel channel(0.1);
  RoundEngine engine(channel, rng, 2);
  const auto state = rng.SaveState();
  for (const char* second : {"01", "10"}) {
    PerParty<BitString> transcripts = {BitString::FromString("01"),
                                       BitString::FromString(second)};
    const PerParty<BitString> before = transcripts;
    std::vector<BitString> beeped(2);
    EXPECT_EQ(
        ExtendTranscripts(*protocol, engine, 1, 0, transcripts, &beeped), -1);
    EXPECT_EQ(transcripts, before);
    EXPECT_TRUE(beeped[0].empty());
    EXPECT_TRUE(beeped[1].empty());
  }
  EXPECT_EQ(engine.rounds_used(), 0);
  EXPECT_EQ(rng.SaveState(), state);
}

TEST(ExtendTranscripts, ValidatesArguments) {
  const std::unique_ptr<Protocol> protocol = EchoProtocol(2, 4);
  Rng rng(6);
  const NoiselessChannel channel;
  RoundEngine engine(channel, rng, 2);
  PerParty<BitString> one(1);
  EXPECT_THROW((void)ExtendTranscripts(*protocol, engine, 1, 1, one),
               std::invalid_argument);
  PerParty<BitString> two(2);
  std::vector<BitString> beeped(3);
  EXPECT_THROW((void)ExtendTranscripts(*protocol, engine, 1, 1, two, &beeped),
               std::invalid_argument);
  EXPECT_THROW((void)ExtendTranscripts(*protocol, engine, 0, 1, two),
               std::invalid_argument);
  EXPECT_THROW((void)ExtendTranscripts(*protocol, engine, 1, -1, two),
               std::invalid_argument);
  EXPECT_THROW((void)ExtendTranscripts(*protocol, engine, 1, 5, two),
               std::invalid_argument);
  PerParty<BitString> ragged = {BitString::FromString("0"), BitString()};
  EXPECT_THROW((void)ExtendTranscripts(*protocol, engine, 1, 1, ragged),
               std::invalid_argument);
  EXPECT_EQ(engine.rounds_used(), 0);
}

}  // namespace
}  // namespace noisybeeps
