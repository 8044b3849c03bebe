#include "coding/verification.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "channel/adversary.h"
#include "channel/burst.h"
#include "channel/collision.h"
#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/noiseless.h"
#include "channel/one_sided.h"
#include "channel/shared_randomness.h"
#include "channel/trace.h"
#include "coding/chunk_sim.h"
#include "coding/sim_common.h"
#include "fault/fault_plan.h"
#include "fault/injection.h"
#include "tasks/bit_exchange.h"
#include "tasks/input_set.h"
#include "tasks/leader_election.h"
#include "tasks/random_protocol.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

// Fixture: InputSet with fixed inputs so beep patterns are predictable.
// Party i beeps exactly in round inputs[i] of the (r=1) protocol.
struct Fixture {
  InputSetInstance instance;
  std::unique_ptr<Protocol> protocol;
  BitString reference;

  explicit Fixture(std::vector<int> inputs) {
    instance.inputs = std::move(inputs);
    protocol = MakeInputSetProtocol(instance);
    reference = ReferenceTranscript(*protocol);
  }
};

std::vector<int> NoOwners(std::size_t len) {
  return std::vector<int>(len, -1);
}

TEST(FirstViolation, CleanTranscriptHasNone) {
  const Fixture fx({0, 2, 2});
  // Owners: round m owned by a party whose input is m; rounds without
  // beepers unowned.
  std::vector<int> owners(6, -1);
  owners[0] = 0;
  owners[2] = 1;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(FirstViolation(*fx.protocol, i, fx.reference, owners,
                             NoiseRegime::kTwoSided),
              fx.reference.size())
        << i;
  }
}

TEST(FirstViolation, SpuriousOneWithoutOwnerFlaggedByEveryone) {
  const Fixture fx({0, 2, 2});
  BitString corrupted = fx.reference;  // "101000"
  corrupted.Set(4, true);              // a 0->1 flip at round 4
  std::vector<int> owners(6, -1);
  owners[0] = 0;
  owners[2] = 1;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(FirstViolation(*fx.protocol, i, corrupted, owners,
                             NoiseRegime::kTwoSided),
              4u)
        << i;
  }
}

TEST(FirstViolation, DroppedOneFlaggedByTheBeeper) {
  const Fixture fx({0, 2, 2});
  BitString corrupted = fx.reference;
  corrupted.Set(2, false);  // kill the 1 that parties 1,2 beeped
  std::vector<int> owners(6, -1);
  owners[0] = 0;
  // Parties 1 and 2 beeped in round 2 and see the 0: they flag round 2.
  EXPECT_EQ(FirstViolation(*fx.protocol, 1, corrupted, owners,
                           NoiseRegime::kTwoSided),
            2u);
  EXPECT_EQ(FirstViolation(*fx.protocol, 2, corrupted, owners,
                           NoiseRegime::kTwoSided),
            2u);
  // Party 0 did not beep there and cannot tell.
  EXPECT_EQ(FirstViolation(*fx.protocol, 0, corrupted, owners,
                           NoiseRegime::kTwoSided),
            corrupted.size());
}

TEST(FirstViolation, OwnerWhoDidNotBeepFlags) {
  const Fixture fx({0, 2, 2});
  std::vector<int> owners(6, -1);
  owners[0] = 0;
  owners[2] = 0;  // WRONG owner: party 0 beeped round 0, not round 2
  EXPECT_EQ(FirstViolation(*fx.protocol, 0, fx.reference, owners,
                           NoiseRegime::kTwoSided),
            2u);
  // Non-owners don't check 1s they don't own.
  EXPECT_EQ(FirstViolation(*fx.protocol, 1, fx.reference, owners,
                           NoiseRegime::kTwoSided),
            fx.reference.size());
}

TEST(FirstViolation, DownOnlyIgnoresOwners) {
  const Fixture fx({0, 2, 2});
  BitString corrupted = fx.reference;
  corrupted.Set(2, false);  // a 1->0 drop
  // In kDownOnly no owner records are needed; the beeper still flags.
  EXPECT_EQ(FirstViolation(*fx.protocol, 1, corrupted, NoOwners(6),
                           NoiseRegime::kDownOnly),
            2u);
  // And spurious unowned 1s are NOT flagged (they cannot occur under
  // down-only noise, so the check does not look for them).
  BitString up_corrupted = fx.reference;
  up_corrupted.Set(4, true);
  EXPECT_EQ(FirstViolation(*fx.protocol, 0, up_corrupted, NoOwners(6),
                           NoiseRegime::kDownOnly),
            up_corrupted.size());
}

TEST(FirstViolation, FromParameterSkipsCommittedRounds) {
  const Fixture fx({0, 2, 2});
  BitString corrupted = fx.reference;
  corrupted.Set(2, false);
  // Checking from round 3 on: the early violation is out of scope.
  EXPECT_EQ(FirstViolation(*fx.protocol, 1, corrupted, NoOwners(6),
                           NoiseRegime::kDownOnly, 3),
            corrupted.size());
}

TEST(FirstViolation, RequiresOwnersInTwoSidedMode) {
  const Fixture fx({0, 1});
  EXPECT_THROW((void)FirstViolation(*fx.protocol, 0, fx.reference,
                                    std::vector<int>(), NoiseRegime::kTwoSided),
               std::invalid_argument);
}

TEST(FirstViolationFromBeeps, RequiresOneBeepPerRoundAndOwnersWhenTwoSided) {
  const BitString transcript = BitString::FromString("1010");
  const std::vector<int> owners(4, 0);
  EXPECT_THROW((void)FirstViolationFromBeeps(
                   0, BitString::FromString("101"), transcript, owners,
                   NoiseRegime::kDownOnly),
               std::invalid_argument);
  EXPECT_THROW((void)FirstViolationFromBeeps(0, transcript, transcript,
                                             std::span<const int>(),
                                             NoiseRegime::kTwoSided),
               std::invalid_argument);
  EXPECT_EQ(FirstViolationFromBeeps(0, transcript, transcript, owners,
                                    NoiseRegime::kTwoSided),
            transcript.size());
}

// --- the recorded-beep rule against the replay reference --------------

constexpr int kParties = 8;
constexpr int kSeeds = 20;
const std::size_t kLengths[] = {1, 8, 63, 64, 65, 130};

// An 8-party protocol of each kind, at least 130 rounds long where the task
// allows it.  Leader election is as long as its id width, at most 63
// rounds, and its beep function is defined only on shorter prefixes.
std::unique_ptr<Protocol> MakeTask(const std::string& task, Rng& rng) {
  if (task == "input_set") {
    return MakeRepeatedInputSetProtocol(SampleInputSet(kParties, rng), 9);
  }
  if (task == "bit_exchange") {
    return MakeBitExchangeProtocol(SampleBitExchange(kParties, 17, rng));
  }
  if (task == "random") {
    return MakeRandomProtocol(
        SampleRandomProtocol(kParties, 130, 0.3, /*adaptive=*/true, rng));
  }
  return MakeLeaderElectionProtocol(SampleLeaderElection(kParties, 63, rng));
}

// A transcript of `len` rounds, what each party beeps along it, and
// per-party owner records.
struct Sample {
  BitString transcript;
  std::vector<BitString> beeped;
  std::vector<std::vector<int>> owners;
};

// Each round's bit is the OR of the parties' beeps on the sampled prefix,
// flipped with probability 2^-flip_shift (never when flip_shift is 0), and
// `beeped` holds those beeps, as a simulator records them.  Owner records
// name the round's lowest-index beeper three times in four, and otherwise
// -1, the party itself or another party.
Sample MakeSample(const Protocol& protocol, std::size_t len, int flip_shift,
                  Rng& rng) {
  Sample sample;
  sample.beeped.assign(kParties, BitString());
  sample.owners.assign(kParties, std::vector<int>());
  for (std::size_t m = 0; m < len; ++m) {
    int beeper = -1;
    for (int i = 0; i < kParties; ++i) {
      const bool beep = protocol.party(i).ChooseBeep(sample.transcript);
      sample.beeped[i].PushBack(beep);
      if (beep && beeper < 0) beeper = i;
    }
    const bool flip =
        flip_shift > 0 && rng.UniformInt(std::uint64_t{1} << flip_shift) == 0;
    sample.transcript.PushBack((beeper >= 0) != flip);
    for (int i = 0; i < kParties; ++i) {
      int owner = beeper;
      switch (rng.UniformInt(12)) {
        case 0:
          owner = -1;
          break;
        case 1:
          owner = i;
          break;
        case 2:
          owner = (i + 1 + static_cast<int>(rng.UniformInt(kParties - 1))) %
                  kParties;
          break;
        default:
          break;
      }
      sample.owners[i].push_back(owner);
    }
  }
  return sample;
}

class RecordedBeepRule : public ::testing::TestWithParam<const char*> {};

// Over whole transcripts the rule equals FirstViolation; over a chunk it
// equals FirstViolation from the chunk's start on committed ++ candidate,
// counted from that start -- what the chunk loop relies on when it
// verifies an attempt alone.
TEST_P(RecordedBeepRule, MatchesTheReplayReference) {
  const std::string task = GetParam();
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
    const std::unique_ptr<Protocol> protocol = MakeTask(task, rng);
    for (const std::size_t len : kLengths) {
      if (len > static_cast<std::size_t>(protocol->length())) continue;
      const Sample sample = MakeSample(*protocol, len, seed % 4 * 2, rng);
      const BitString& t = sample.transcript;
      for (const NoiseRegime regime :
           {NoiseRegime::kTwoSided, NoiseRegime::kDownOnly}) {
        for (int i = 0; i < kParties; ++i) {
          SCOPED_TRACE(::testing::Message()
                       << task << " seed " << seed << " len " << len
                       << " party " << i << " two-sided "
                       << (regime == NoiseRegime::kTwoSided));
          const std::vector<int>& owners = sample.owners[i];
          ASSERT_EQ(FirstViolationFromBeeps(i, sample.beeped[i], t, owners,
                                            regime),
                    FirstViolation(*protocol, i, t, owners, regime));
          for (const std::size_t start :
               {std::size_t{0}, std::size_t{1}, std::size_t{63},
                std::size_t{64}, len / 2, len - 1}) {
            if (start >= len) continue;
            const std::span<const int> chunk_owners =
                regime == NoiseRegime::kDownOnly
                    ? std::span<const int>()
                    : std::span<const int>(owners).subspan(start);
            ASSERT_EQ(
                FirstViolationFromBeeps(
                    i, sample.beeped[i].Substring(start, len),
                    t.Substring(start, len), chunk_owners, regime),
                FirstViolation(*protocol, i, t, owners, regime, start) -
                    start)
                << "start " << start;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tasks, RecordedBeepRule,
    ::testing::Values("input_set", "bit_exchange", "random", "leader"),
    [](const ::testing::TestParamInfo<const char*>& task_info) {
      return std::string(task_info.param);
    });

// Purity, checked directly on the adaptive tasks: every beep a chunk
// attempt records is the party's beep function on its committed prefix
// extended by the candidate bits before that round.  The in-place variant
// leaves exactly committed ++ candidate in the transcripts, and the
// copying adapter returns the same attempt.
TEST(RecordedBeeps, EqualTheBeepFunctionOnTheCandidatePrefix) {
  const IndependentNoisyChannel channel(0.2);
  for (const std::string task : {"random", "leader"}) {
    for (int seed = 0; seed < kSeeds; ++seed) {
      SCOPED_TRACE(::testing::Message() << task << " seed " << seed);
      Rng rng(static_cast<std::uint64_t>(seed) + 101);
      const std::unique_ptr<Protocol> protocol = MakeTask(task, rng);
      const int start = seed % 2 == 0 ? 0 : 20;
      const int chunk_len = protocol->length() - start;
      const Sample sample =
          MakeSample(*protocol, static_cast<std::size_t>(start), 3, rng);
      std::vector<BitString> committed;
      for (int i = 0; i < kParties; ++i) {
        BitString prefix = sample.transcript;
        if (start > 0 && i % 2 == 1) prefix.Set(0, !prefix[0]);
        committed.push_back(prefix);
      }
      Rng copy_rng(static_cast<std::uint64_t>(seed));
      Rng in_place_rng(static_cast<std::uint64_t>(seed));
      RoundEngine copy_engine(channel, copy_rng, kParties);
      RoundEngine in_place_engine(channel, in_place_rng, kParties);
      const ChunkAttempt copied = SimulateChunk(
          *protocol, committed, start, chunk_len, 1, nullptr, copy_engine);
      std::vector<BitString> transcripts = committed;
      const ChunkAttempt attempt =
          SimulateChunkInPlace(*protocol, transcripts, start, chunk_len, 1,
                               nullptr, in_place_engine);
      ASSERT_EQ(attempt.candidate, copied.candidate);
      ASSERT_EQ(attempt.beeped, copied.beeped);
      for (int i = 0; i < kParties; ++i) {
        BitString prefix = committed[i];
        for (int m = 0; m < chunk_len; ++m) {
          ASSERT_EQ(attempt.beeped[i][m],
                    protocol->party(i).ChooseBeep(prefix))
              << "party " << i << " round " << m;
          prefix.PushBack(attempt.candidate[i][m]);
        }
        EXPECT_EQ(transcripts[i], prefix) << "party " << i;
      }
    }
  }
}

TEST(CommunicateFlags, NoiselessOrSemantics) {
  Rng rng(1);
  const NoiselessChannel channel;
  RoundEngine engine(channel, rng, 3);
  const std::vector<std::uint8_t> none{0, 0, 0};
  const std::vector<std::uint8_t> one{0, 1, 0};
  // Packed, one bit per party, tail bits zero.
  EXPECT_EQ(CommunicateFlags(engine, none, 3, FlagRule::kMajority),
            std::vector<std::uint64_t>{0});
  EXPECT_EQ(CommunicateFlags(engine, one, 3, FlagRule::kMajority),
            std::vector<std::uint64_t>{0b111});
}

TEST(CommunicateFlags, MajoritySurvivesModerateNoise) {
  Rng rng(2);
  const CorrelatedNoisyChannel channel(0.1);
  int correct = 0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    RoundEngine engine(channel, rng, 4);
    const bool raised = t % 2 == 0;
    std::vector<std::uint8_t> flags(4, 0);
    if (raised) flags[1] = 1;
    const auto verdict =
        CommunicateFlags(engine, flags, 15, FlagRule::kMajority);
    correct += PackedBit(verdict, 0) == raised;
  }
  EXPECT_GE(correct, 195);
}

TEST(CommunicateFlags, AnyOneRuleIsExactUnderDownNoise) {
  Rng rng(3);
  const OneSidedDownChannel channel(0.3);
  // No flag raised: under down-only noise no spurious 1 can appear, so the
  // verdict is ALWAYS clear.
  for (int t = 0; t < 100; ++t) {
    RoundEngine engine(channel, rng, 3);
    const std::vector<std::uint8_t> none{0, 0, 0};
    const auto verdict = CommunicateFlags(engine, none, 4, FlagRule::kAnyOne);
    EXPECT_EQ(verdict, std::vector<std::uint64_t>{0});
  }
  // Raised flag: missed only if all reps drop (0.3^6 ~ 0.07%).
  int heard = 0;
  for (int t = 0; t < 200; ++t) {
    RoundEngine engine(channel, rng, 3);
    const std::vector<std::uint8_t> one{1, 0, 0};
    const auto verdict = CommunicateFlags(engine, one, 6, FlagRule::kAnyOne);
    heard += PackedBit(verdict, 2);
  }
  EXPECT_GE(heard, 198);
}

// RepeatRound's result, copied: the span is valid only until its next
// call.
std::vector<std::uint64_t> Repeated(RoundEngine& engine,
                                    std::span<const std::uint64_t> beeps,
                                    int reps, FlagRule rule) {
  const std::span<const std::uint64_t> decoded =
      engine.RepeatRound(beeps, reps, rule);
  return {decoded.begin(), decoded.end()};
}

// The reference for RepeatRound: `reps` RoundWords calls on `engine`, each
// party's received 1s counted one by one and decoded under `rule`.
std::vector<std::uint64_t> CountPerParty(RoundEngine& engine,
                                         std::span<const std::uint64_t> beeps,
                                         int reps, FlagRule rule) {
  const std::int64_t n = engine.num_parties();
  std::vector<int> ones(static_cast<std::size_t>(n), 0);
  for (int t = 0; t < reps; ++t) {
    const auto received = engine.RoundWords(beeps);
    for (std::int64_t i = 0; i < n; ++i) {
      ones[static_cast<std::size_t>(i)] += PackedBit(received, i);
    }
  }
  std::vector<std::uint64_t> decoded(WordsForParties(n), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const int count = ones[static_cast<std::size_t>(i)];
    SetPackedBit(decoded, i,
                 rule == FlagRule::kMajority ? 2 * count >= reps : count > 0);
  }
  return decoded;
}

// RepeatRound counts bit-sliced, 64 parties per word; it must decode
// exactly what a per-party count of the same rounds decodes (tail bits
// zero), under both rules, for repetition counts on both sides of every
// power of two and a party count that straddles a word boundary.
TEST(RepeatRound, MatchesAPerPartyCount) {
  const IndependentNoisyChannel channel(0.3);
  const std::int64_t n = 130;
  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  for (std::int64_t i = 0; i < n; i += 3) SetPackedBit(beeps, i, true);
  for (const FlagRule rule : {FlagRule::kMajority, FlagRule::kAnyOne}) {
    for (int reps = 1; reps <= 66; ++reps) {
      Rng fast_rng(static_cast<std::uint64_t>(reps));
      Rng ref_rng(static_cast<std::uint64_t>(reps));
      RoundEngine fast(channel, fast_rng, n);
      RoundEngine ref(channel, ref_rng, n);
      ASSERT_EQ(Repeated(fast, beeps, reps, rule),
                CountPerParty(ref, beeps, reps, rule))
          << "reps=" << reps;
      EXPECT_EQ(fast.rounds_used(), reps);
    }
  }
}

// Forwards RoundWords to RoundEngine and counts the calls; the rounds it
// ran as one shared bit are the rest.  Built as rewriting per-party bits,
// it never shares, so RepeatRound counts every repetition per party from
// RoundWords: the word path a sharing engine must match.
class ProbeEngine final : public RoundEngine {
 public:
  ProbeEngine(const Channel& channel, Rng& rng, std::int64_t n,
              bool rewrites_bits = false)
      : RoundEngine(channel, rng, n, rewrites_bits) {}

  std::span<const std::uint64_t> RoundWords(
      std::span<const std::uint64_t> beep_words) override {
    ++word_rounds_;
    return RoundEngine::RoundWords(beep_words);
  }

  [[nodiscard]] std::int64_t word_rounds() const { return word_rounds_; }
  [[nodiscard]] std::int64_t shared_rounds() const {
    return rounds_used() - word_rounds_;
  }

 private:
  std::int64_t word_rounds_ = 0;
};

struct SharedChannelCase {
  const char* name;
  std::function<std::unique_ptr<Channel>()> make;
};

// Every shared-draw channel, each made fresh per engine: the burst
// channel keeps its Markov state inside the channel object.
std::vector<SharedChannelCase> SharedDrawChannels() {
  return {
      {"noiseless", [] { return std::make_unique<NoiselessChannel>(); }},
      {"correlated",
       [] { return std::make_unique<CorrelatedNoisyChannel>(0.3); }},
      {"up", [] { return std::make_unique<OneSidedUpChannel>(0.3); }},
      {"down", [] { return std::make_unique<OneSidedDownChannel>(0.3); }},
      {"burst",
       [] { return std::make_unique<BurstNoisyChannel>(0.05, 0.4, 0.2, 0.3); }},
      {"collision",
       [] { return std::make_unique<CollisionAsSilenceChannel>(0.2); }},
      {"adversary",
       [] {
         return std::make_unique<AdversarialCorrectionChannel>(
             0.3, CorrectionPolicy::kCorrectDrops);
       }},
      {"shared_randomness",
       [] {
         return std::make_unique<SharedRandomnessOneSidedAdapter>(
             SharedRandomnessOneSidedAdapter::PaperInstance());
       }},
  };
}

// Beeps of `beepers` parties among n: none, the last one (in the tail word
// when n is not a multiple of 64), or all of them.
std::vector<std::uint64_t> BeepsOf(std::int64_t n, std::int64_t beepers) {
  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  if (beepers == n) {
    FillSharedWords(beeps, n, true);
  } else if (beepers == 1) {
    SetPackedBit(beeps, n - 1, true);
  }
  return beeps;
}

// A round every party hears alike is one bit: RepeatRound on a sharing
// engine must decode, count and draw exactly what the per-party word path
// does on a fresh copy of the same channel, without one RoundWords call.
TEST(RepeatRound, SharedRoundsMatchTheWordPath) {
  for (const SharedChannelCase& channel_case : SharedDrawChannels()) {
    for (const std::int64_t n : {1, 63, 64, 65, 1024}) {
      for (const std::int64_t beepers : {std::int64_t{0}, std::int64_t{1}, n}) {
        const std::vector<std::uint64_t> beeps = BeepsOf(n, beepers);
        for (const int reps : {1, 2, 5, 22, 41, 64}) {
          for (const FlagRule rule : {FlagRule::kMajority, FlagRule::kAnyOne}) {
            const std::string where =
                std::string(channel_case.name) + " n=" + std::to_string(n) +
                " beepers=" + std::to_string(beepers) +
                " reps=" + std::to_string(reps) +
                (rule == FlagRule::kMajority ? " majority" : " any-one");
            const auto seed = static_cast<std::uint64_t>(n * 131 + reps);
            const std::unique_ptr<Channel> shared_channel = channel_case.make();
            const std::unique_ptr<Channel> word_channel = channel_case.make();
            Rng shared_rng(seed);
            Rng word_rng(seed);
            ProbeEngine shared(*shared_channel, shared_rng, n);
            ProbeEngine word(*word_channel, word_rng, n,
                             /*rewrites_bits=*/true);
            ASSERT_TRUE(shared.shares_rounds()) << where;
            // Three calls under two phases: the burst channel's state
            // carries from call to call, and each phase counts its own.
            for (const char* phase : {"chunk-sim", "chunk-sim", "flags"}) {
              shared.SetPhase(phase);
              word.SetPhase(phase);
              ASSERT_EQ(Repeated(shared, beeps, reps, rule),
                        Repeated(word, beeps, reps, rule))
                  << where;
            }
            ASSERT_EQ(shared.rounds_used(), 3 * reps) << where;
            ASSERT_EQ(shared.rounds_used(), word.rounds_used()) << where;
            ASSERT_EQ(shared.phase_rounds(), word.phase_rounds()) << where;
            ASSERT_EQ(shared_rng.SaveState(), word_rng.SaveState()) << where;
            ASSERT_EQ(shared.word_rounds(), 0) << where;
            ASSERT_EQ(shared.shared_rounds(), 3 * reps) << where;
            ASSERT_EQ(word.word_rounds(), 3 * reps) << where;
          }
        }
      }
    }
  }
}

TEST(RepeatRound, SharedPathStillChecksTheBeepWords) {
  const CorrelatedNoisyChannel channel(0.1);
  Rng rng(1);
  RoundEngine engine(channel, rng, 65);
  ASSERT_TRUE(engine.shares_rounds());
  const auto before = rng.SaveState();
  const std::vector<std::uint64_t> short_span(1, 0);
  const std::vector<std::uint64_t> long_span(3, 0);
  // Bit 1 of the last word is party 65; the parties are 0..64.
  const std::vector<std::uint64_t> dirty_tail{0, std::uint64_t{1} << 1};
  for (const auto* beeps : {&short_span, &long_span, &dirty_tail}) {
    EXPECT_THROW((void)engine.RepeatRound(*beeps, 3, FlagRule::kMajority),
                 std::invalid_argument);
  }
  EXPECT_EQ(engine.rounds_used(), 0);
  EXPECT_EQ(rng.SaveState(), before);
}

// An engine that cannot promise every party one bit runs each repetition
// through RoundWords: RepeatRound must decode, draw and count exactly what
// a per-party count of `reps` RoundWords calls gives on a twin engine, for
// a silent round and a round with one beeper.
void ExpectWordPath(RoundEngine& engine, const Rng& rng, RoundEngine& twin,
                    const Rng& twin_rng, const std::string& where) {
  EXPECT_FALSE(engine.shares_rounds()) << where;
  const int reps = 5;
  engine.SetPhase("flags");
  twin.SetPhase("flags");
  for (const std::int64_t beepers : {0, 1}) {
    const std::vector<std::uint64_t> beeps =
        BeepsOf(engine.num_parties(), beepers);
    EXPECT_EQ(Repeated(engine, beeps, reps, FlagRule::kMajority),
              CountPerParty(twin, beeps, reps, FlagRule::kMajority))
        << where << " beepers=" << beepers;
  }
  EXPECT_EQ(engine.rounds_used(), 2 * reps) << where;
  EXPECT_EQ(engine.phase_rounds(), twin.phase_rounds()) << where;
  EXPECT_EQ(rng.SaveState(), twin_rng.SaveState()) << where;
}

TEST(SharedRound, EnginesThatCannotPromiseOneBitDecline) {
  const std::int64_t n = 65;
  const CorrelatedNoisyChannel correlated(0.3);
  {
    const IndependentNoisyChannel independent(0.3);
    Rng rng(2);
    Rng twin_rng(2);
    RoundEngine engine(independent, rng, n);
    RoundEngine twin(independent, twin_rng, n);
    ExpectWordPath(engine, rng, twin, twin_rng, "independent");
  }
  {
    // The trace wrappers forward is_correlated(), but each must see every
    // delivery.
    const RecordingChannel recording(correlated);
    const RecordingChannel twin_recording(correlated);
    Rng rng(3);
    Rng twin_rng(3);
    RoundEngine engine(recording, rng, n);
    RoundEngine twin(twin_recording, twin_rng, n);
    ExpectWordPath(engine, rng, twin, twin_rng, "recording");
    EXPECT_EQ(recording.trace().size(), 10u);
    const ReplayChannel replay(recording.trace(), /*correlated=*/true);
    const ReplayChannel twin_replay(recording.trace(), /*correlated=*/true);
    RoundEngine replay_engine(replay, rng, n);
    RoundEngine replay_twin(twin_replay, twin_rng, n);
    ExpectWordPath(replay_engine, rng, replay_twin, twin_rng, "replay");
  }
  // One spec that rewrites only a send bit, and one that rewrites only a
  // received bit.
  for (const char* plan : {"babble:5@0-3000:0.3", "deaf:2@0-3000"}) {
    const FaultPlan faults = FaultPlan::Parse(plan, 11);
    Rng rng(4);
    Rng twin_rng(4);
    FaultyRoundEngine engine(correlated, rng, n, faults);
    FaultyRoundEngine twin(correlated, twin_rng, n, faults);
    ExpectWordPath(engine, rng, twin, twin_rng, plan);
  }
  {
    // An empty plan shares.
    Rng rng(5);
    const FaultyRoundEngine engine(correlated, rng, n, FaultPlan());
    EXPECT_TRUE(engine.shares_rounds());
  }
}

// A recording wrapper takes the word path, so its trace holds every
// repetition, and the decoded bits equal the bare channel's shared ones.
TEST(SharedRound, RecordingChannelSeesEveryRepetition) {
  const std::int64_t n = 65;
  const std::vector<std::uint64_t> beeps = BeepsOf(n, 1);
  const CorrelatedNoisyChannel correlated(0.3);
  const RecordingChannel recording(correlated);
  Rng recorded_rng(6);
  Rng bare_rng(6);
  ProbeEngine recorded(recording, recorded_rng, n);
  ProbeEngine bare(correlated, bare_rng, n);
  EXPECT_EQ(Repeated(recorded, beeps, 7, FlagRule::kMajority),
            Repeated(bare, beeps, 7, FlagRule::kMajority));
  EXPECT_EQ(recording.trace().size(), 7u);
  EXPECT_EQ(recorded.word_rounds(), 7);
  EXPECT_EQ(bare.shared_rounds(), 7);
  EXPECT_EQ(recorded_rng.SaveState(), bare_rng.SaveState());
}

// The owner phase's codeword on a sharing engine: one SharedWordRounds
// call must hear, draw and count what one RoundWords call per bit does on
// a word-path twin, where one party beeps in the rounds the word has a 1.
TEST(SharedRound, WordOfRoundsMatchesOneRoundWordsCallPerBit) {
  const std::int64_t n = 65;
  for (const SharedChannelCase& channel_case : SharedDrawChannels()) {
    for (const std::size_t length : {1, 54, 64, 65, 130}) {
      const std::string where =
          std::string(channel_case.name) + " L=" + std::to_string(length);
      const std::unique_ptr<Channel> shared_channel = channel_case.make();
      const std::unique_ptr<Channel> word_channel = channel_case.make();
      Rng shared_rng(length);
      Rng word_rng(length);
      ProbeEngine shared(*shared_channel, shared_rng, n);
      ProbeEngine word(*word_channel, word_rng, n, /*rewrites_bits=*/true);
      ASSERT_TRUE(shared.shares_rounds()) << where;
      Rng bits_rng(length + 1000);
      const auto rounds = static_cast<std::int64_t>(length);
      // Two words under two phases: the burst channel's state carries
      // from word to word, and each phase counts its own rounds.
      for (const char* phase : {"owner-finding", "flags"}) {
        std::vector<std::uint64_t> sent(WordsForParties(rounds), 0);
        for (std::int64_t t = 0; t < rounds; ++t) {
          SetPackedBit(sent, t, bits_rng.Bit());
        }
        shared.SetPhase(phase);
        word.SetPhase(phase);
        std::vector<std::uint64_t> heard(sent.size(), ~std::uint64_t{0});
        shared.SharedWordRounds(sent, length, heard);
        std::vector<std::uint64_t> expected(sent.size(), 0);
        for (std::int64_t t = 0; t < rounds; ++t) {
          const std::optional<bool> bit = SharedBit(
              word.RoundWords(BeepsOf(n, PackedBit(sent, t) ? 1 : 0)), n);
          ASSERT_TRUE(bit.has_value()) << where;
          SetPackedBit(expected, t, *bit);
        }
        ASSERT_EQ(heard, expected) << where << " " << phase;
      }
      EXPECT_EQ(shared.rounds_used(), 2 * rounds) << where;
      EXPECT_EQ(shared.phase_rounds(), word.phase_rounds()) << where;
      EXPECT_EQ(shared_rng.SaveState(), word_rng.SaveState()) << where;
      EXPECT_EQ(shared.word_rounds(), 0) << where;
    }
  }
}

TEST(SharedRound, WordOfRoundsNeedsASharingEngineAndMatchingSpans) {
  const std::int64_t n = 65;
  const CorrelatedNoisyChannel correlated(0.3);
  const IndependentNoisyChannel independent(0.3);
  Rng rng(7);
  const auto before = rng.SaveState();
  RoundEngine declines(independent, rng, n);
  RoundEngine shares(correlated, rng, n);
  std::vector<std::uint64_t> one(1, 0);
  std::vector<std::uint64_t> two(2, 0);
  EXPECT_THROW(declines.SharedWordRounds(one, 54, one),
               std::invalid_argument);
  EXPECT_THROW(shares.SharedWordRounds(one, 0, one), std::invalid_argument);
  EXPECT_THROW(shares.SharedWordRounds(two, 54, one), std::invalid_argument);
  EXPECT_THROW(shares.SharedWordRounds(one, 65, one), std::invalid_argument);
  EXPECT_EQ(declines.rounds_used() + shares.rounds_used(), 0);
  EXPECT_TRUE(shares.phase_rounds().empty());
  EXPECT_EQ(rng.SaveState(), before);
}

// The tracker's packed overload compares party with party: at n = 65 an
// all-ones round is word 0 all ones and word 1 holding one bit, which a
// word-by-word compare would call a divergence.
TEST(DivergenceTracker, ComparesPackedPartiesNotWords) {
  const std::int64_t n = 65;
  std::vector<std::uint64_t> words(WordsForParties(n), 0);
  FillSharedWords(words, n, true);
  internal::DivergenceTracker tracker;
  tracker.Observe(words, n, "verify-flags", 10);
  EXPECT_FALSE(tracker.diverged());
  SetPackedBit(words, 64, false);
  tracker.Observe(words, n, "verify-flags", 20);
  tracker.Observe(words, n, "audit", 30);  // no-op once diverged
  ASSERT_TRUE(tracker.diverged());
  SimulationVerdict verdict;
  tracker.Export(verdict);
  EXPECT_EQ(verdict.first_divergent_phase, "verify-flags");
  EXPECT_EQ(verdict.first_divergence_round, 20);
}

TEST(BinarySearchVerifiedPrefix, FindsMinimumViolationNoiselessly) {
  Rng rng(4);
  const NoiselessChannel channel;
  // 5 parties with local first-violations; the verified prefix must be
  // the minimum (round indices are 0-based; prefix length == min index).
  const std::vector<std::size_t> fv{17, 9, 23, 9, 30};
  RoundEngine engine(channel, rng, 5);
  const auto verified = BinarySearchVerifiedPrefix(engine, fv, 30, 1,
                                                   FlagRule::kMajority);
  for (auto p : verified) EXPECT_EQ(p, 9u);
}

TEST(BinarySearchVerifiedPrefix, CleanTranscriptVerifiesFully) {
  Rng rng(5);
  const NoiselessChannel channel;
  const std::vector<std::size_t> fv{40, 40, 40};
  RoundEngine engine(channel, rng, 3);
  const auto verified = BinarySearchVerifiedPrefix(engine, fv, 40, 1,
                                                   FlagRule::kMajority);
  for (auto p : verified) EXPECT_EQ(p, 40u);
}

TEST(BinarySearchVerifiedPrefix, ViolationAtZeroMeansEmptyPrefix) {
  Rng rng(6);
  const NoiselessChannel channel;
  const std::vector<std::size_t> fv{0, 12};
  RoundEngine engine(channel, rng, 2);
  const auto verified = BinarySearchVerifiedPrefix(engine, fv, 12, 1,
                                                   FlagRule::kMajority);
  for (auto p : verified) EXPECT_EQ(p, 0u);
}

TEST(BinarySearchVerifiedPrefix, NoisySearchUsuallyCorrect) {
  Rng rng(7);
  const CorrelatedNoisyChannel channel(0.05);
  int correct = 0;
  constexpr int kTrials = 100;
  for (int t = 0; t < kTrials; ++t) {
    const std::size_t bad = rng.UniformInt(65);
    const std::vector<std::size_t> fv{64, bad, 64};
    RoundEngine engine(channel, rng, 3);
    const auto verified = BinarySearchVerifiedPrefix(engine, fv, 64, 9,
                                                     FlagRule::kMajority);
    correct += verified[0] == std::min<std::size_t>(bad, 64);
  }
  EXPECT_GE(correct, 90);
}

TEST(BinarySearchVerifiedPrefix, EmptyTranscriptIsTrivial) {
  Rng rng(8);
  const NoiselessChannel channel;
  RoundEngine engine(channel, rng, 2);
  const std::vector<std::size_t> fv{0, 0};
  const auto verified =
      BinarySearchVerifiedPrefix(engine, fv, 0, 1, FlagRule::kMajority);
  for (auto p : verified) EXPECT_EQ(p, 0u);
  EXPECT_EQ(engine.rounds_used(), 0);
}

}  // namespace
}  // namespace noisybeeps
