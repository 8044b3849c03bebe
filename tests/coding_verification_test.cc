#include "coding/verification.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/noiseless.h"
#include "channel/one_sided.h"
#include "tasks/input_set.h"
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

TEST(CommunicateFlags, NoiselessOrSemantics) {
  Rng rng(1);
  const NoiselessChannel channel;
  RoundEngine engine(channel, rng, 3);
  const std::vector<std::uint8_t> none{0, 0, 0};
  const std::vector<std::uint8_t> one{0, 1, 0};
  for (auto v : CommunicateFlags(engine, none, 3, FlagRule::kMajority)) {
    EXPECT_EQ(v, 0);
  }
  for (auto v : CommunicateFlags(engine, one, 3, FlagRule::kMajority)) {
    EXPECT_EQ(v, 1);
  }
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
    correct += (verdict[0] != 0) == raised;
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
    for (auto v : verdict) EXPECT_EQ(v, 0);
  }
  // Raised flag: missed only if all reps drop (0.3^6 ~ 0.07%).
  int heard = 0;
  for (int t = 0; t < 200; ++t) {
    RoundEngine engine(channel, rng, 3);
    const std::vector<std::uint8_t> one{1, 0, 0};
    const auto verdict = CommunicateFlags(engine, one, 6, FlagRule::kAnyOne);
    heard += verdict[2] != 0;
  }
  EXPECT_GE(heard, 198);
}

// RepeatRound counts bit-sliced, 64 parties per word; it must decode
// exactly what a per-party count of the same rounds decodes, under both
// rules, for repetition counts on both sides of every power of two and a
// party count that straddles a word boundary.
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
      const std::vector<std::uint8_t> decoded =
          RepeatRound(fast, beeps, reps, rule);
      std::vector<int> ones(static_cast<std::size_t>(n), 0);
      for (int t = 0; t < reps; ++t) {
        const auto received = ref.RoundWords(beeps);
        for (std::int64_t i = 0; i < n; ++i) {
          ones[static_cast<std::size_t>(i)] += PackedBit(received, i);
        }
      }
      for (std::int64_t i = 0; i < n; ++i) {
        const int count = ones[static_cast<std::size_t>(i)];
        const bool expected =
            rule == FlagRule::kMajority ? 2 * count >= reps : count > 0;
        ASSERT_EQ(decoded[static_cast<std::size_t>(i)] != 0, expected)
            << "reps=" << reps << " party=" << i;
      }
      EXPECT_EQ(fast.rounds_used(), reps);
    }
  }
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
