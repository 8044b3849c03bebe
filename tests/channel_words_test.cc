// The word-parallel delivery path (DeliverWords / RoundWords).
//
// Three contracts are held to account here:
//   1. the byte adapter is the word path: for EVERY channel, Deliver
//      produces the bits of DeliverWords in kStreamCompat mode AND leaves
//      the rng in the identical state -- same seed, same draws, same bits
//      (channel_stream_test.cc pins that stream to the historical one).
//   2. shared-draw channels cannot tell the modes apart: one draw per
//      round either way, so kFast == kStreamCompat == scalar for all of
//      them by construction.
//   3. the fast independent path batches: epsilon = 0 consumes no
//      randomness, the per-lane flip distribution matches the scalar
//      sampler statistically, tail bits of the last word stay zero at
//      every word-straddling party count, and the stream-compat draw
//      count is pinned to exactly one NextU64 per listener.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "channel/adversary.h"
#include "channel/burst.h"
#include "channel/channel.h"
#include "channel/collision.h"
#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/noiseless.h"
#include "channel/one_sided.h"
#include "channel/shared_randomness.h"
#include "channel/trace.h"
#include "fault/injection.h"
#include "protocol/round_engine.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

constexpr std::uint64_t kSeed = 20260807;

// Party counts probing word boundaries: below, at, and straddling one and
// several words.
const std::int64_t kPartyCounts[] = {1, 5, 63, 64, 65, 127, 128, 190};

std::vector<std::unique_ptr<Channel>> AllChannels() {
  std::vector<std::unique_ptr<Channel>> channels;
  channels.push_back(std::make_unique<NoiselessChannel>());
  channels.push_back(std::make_unique<CorrelatedNoisyChannel>(0.1));
  channels.push_back(std::make_unique<OneSidedUpChannel>(1.0 / 3.0));
  channels.push_back(std::make_unique<OneSidedDownChannel>(0.25));
  channels.push_back(std::make_unique<CollisionAsSilenceChannel>(0.15));
  channels.push_back(std::make_unique<CollisionAsSilenceChannel>(0.0));
  channels.push_back(std::make_unique<BurstNoisyChannel>(0.01, 0.4, 0.2, 0.5));
  channels.push_back(std::make_unique<AdversarialCorrectionChannel>(
      0.3, CorrectionPolicy::kCorrectDrops));
  channels.push_back(
      std::make_unique<SharedRandomnessOneSidedAdapter>(1.0 / 3.0, 0.25));
  channels.push_back(std::make_unique<IndependentNoisyChannel>(0.2));
  channels.push_back(std::make_unique<IndependentNoisyChannel>(0.004));
  channels.push_back(std::make_unique<IndependentNoisyChannel>(0.0));
  return channels;
}

std::int64_t BeepersAt(int r, std::int64_t n) {
  return (r % 3) % (n + 1);
}

// Runs `rounds` scalar rounds on `scalar_channel` and `rounds` word
// rounds on `word_channel` from the same seed and asserts bit-identity.
// The two must be freshly built twins (AllChannels() is deterministic):
// interleaving both paths on ONE object would advance stateful channels
// (burst's Markov chain) twice per round and compare different rounds.
void ExpectWordPathMatchesScalar(const Channel& scalar_channel,
                                 const Channel& word_channel, std::int64_t n,
                                 WordMode mode, int rounds = 32) {
  Rng scalar_rng(kSeed);
  Rng word_rng(kSeed);
  std::vector<std::uint8_t> received(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> packed(WordsForParties(n), 0);
  std::vector<std::uint64_t> received_words(WordsForParties(n), 0);
  for (int r = 0; r < rounds; ++r) {
    const std::int64_t beepers = BeepersAt(r, n);
    scalar_channel.Deliver(beepers, received, scalar_rng);
    word_channel.DeliverWords(beepers, received_words, n, mode, word_rng);
    PackBits(received, packed);
    ASSERT_EQ(packed, received_words)
        << scalar_channel.name() << " n=" << n << " round=" << r;
    // Tail bits of the last word must come back zero.
    ASSERT_EQ(received_words.back() & ~TailWordMask(n), 0u)
        << scalar_channel.name() << " n=" << n << " round=" << r;
  }
  if (mode == WordMode::kStreamCompat) {
    // Draw-for-draw identity: the streams end in the same place.
    EXPECT_EQ(scalar_rng.SaveState(), word_rng.SaveState())
        << scalar_channel.name() << " n=" << n;
  }
}

TEST(ChannelWords, StreamCompatIsBitAndDrawIdenticalToScalar) {
  const auto scalar_channels = AllChannels();
  for (std::size_t c = 0; c < scalar_channels.size(); ++c) {
    for (const std::int64_t n : kPartyCounts) {
      // Fresh twins per party count: stateful channels restart clean.
      ExpectWordPathMatchesScalar(*AllChannels()[c], *AllChannels()[c], n,
                                  WordMode::kStreamCompat);
    }
  }
}

TEST(ChannelWords, SharedDrawChannelsCannotTellModesApart) {
  const auto probe_channels = AllChannels();
  for (std::size_t c = 0; c < probe_channels.size(); ++c) {
    if (!probe_channels[c]->is_correlated()) continue;
    for (const std::int64_t n : kPartyCounts) {
      // For shared-draw channels fast == compat == scalar, including the
      // end rng state (one draw per round either way).
      ExpectWordPathMatchesScalar(*AllChannels()[c], *AllChannels()[c], n,
                                  WordMode::kFast);
      const auto fast_channel = std::move(AllChannels()[c]);
      const auto compat_channel = std::move(AllChannels()[c]);
      Rng fast_rng(kSeed);
      Rng compat_rng(kSeed);
      std::vector<std::uint64_t> fast_words(WordsForParties(n), 0);
      std::vector<std::uint64_t> compat_words(WordsForParties(n), 0);
      for (int r = 0; r < 32; ++r) {
        const std::int64_t beepers = BeepersAt(r, n);
        fast_channel->DeliverWords(beepers, fast_words, n, WordMode::kFast,
                                   fast_rng);
        compat_channel->DeliverWords(beepers, compat_words, n,
                                     WordMode::kStreamCompat, compat_rng);
        ASSERT_EQ(fast_words, compat_words)
            << fast_channel->name() << " n=" << n;
      }
      EXPECT_EQ(fast_rng.SaveState(), compat_rng.SaveState())
          << fast_channel->name() << " n=" << n;
    }
  }
}

TEST(ChannelWords, StreamCompatIndependentDrawCountIsOnePerListener) {
  const IndependentNoisyChannel channel(0.2);
  for (const std::int64_t n : kPartyCounts) {
    Rng rng(kSeed);
    Rng counter(kSeed);
    std::vector<std::uint64_t> words(WordsForParties(n), 0);
    channel.DeliverWords(1, words, n, WordMode::kStreamCompat, rng);
    for (std::int64_t i = 0; i < n; ++i) (void)counter.NextU64();
    EXPECT_EQ(rng.SaveState(), counter.SaveState()) << "n=" << n;
  }
}

TEST(ChannelWords, FastIndependentZeroEpsilonConsumesNoRandomness) {
  const IndependentNoisyChannel channel(0.0);
  const std::int64_t n = 190;
  Rng rng(kSeed);
  const auto before = rng.SaveState();
  std::vector<std::uint64_t> words(WordsForParties(n), ~std::uint64_t{0});
  channel.DeliverWords(0, words, n, WordMode::kFast, rng);
  EXPECT_EQ(rng.SaveState(), before);
  for (const std::uint64_t w : words) EXPECT_EQ(w, 0u);
  channel.DeliverWords(n, words, n, WordMode::kFast, rng);
  EXPECT_EQ(rng.SaveState(), before);
  EXPECT_EQ(words.back() & ~TailWordMask(n), 0u);
  std::int64_t ones = 0;
  for (const std::uint64_t w : words) ones += std::popcount(w);
  EXPECT_EQ(ones, n);
}

// The fast path must sample each lane from the identical fixed-point
// Bernoulli(eps) marginal the scalar path uses, in both regimes: the
// geometric skip walk (64 * eps < 1) and the bit-sliced word draws.
TEST(ChannelWords, FastIndependentFlipRateMatchesEpsilon) {
  for (const double eps : {0.004, 0.2}) {
    const IndependentNoisyChannel channel(eps);
    const std::int64_t n = 190;
    Rng rng(kSeed);
    std::vector<std::uint64_t> words(WordsForParties(n), 0);
    std::int64_t flips = 0;
    const int rounds = eps < 0.01 ? 40000 : 4000;
    for (int r = 0; r < rounds; ++r) {
      channel.DeliverWords(0, words, n, WordMode::kFast, rng);
      ASSERT_EQ(words.back() & ~TailWordMask(n), 0u);
      for (const std::uint64_t w : words) flips += std::popcount(w);
    }
    const double total = static_cast<double>(rounds) * static_cast<double>(n);
    const double rate = static_cast<double>(flips) / total;
    // ~5 sigma of the binomial around eps.
    const double sigma = std::sqrt(eps * (1.0 - eps) / total);
    EXPECT_NEAR(rate, eps, 5.0 * sigma) << "eps=" << eps;
  }
}

// A fast-mode skip walk crossing word boundaries must flip each selected
// position exactly once: flipping the all-ones input back yields the
// complement of the all-zeros run under the same seed.
TEST(ChannelWords, FastIndependentSkipWalkStraddlesWordsWithoutDoubleDraw) {
  const IndependentNoisyChannel channel(0.004);
  const std::int64_t n = 190;
  Rng rng_a(kSeed);
  Rng rng_b(kSeed);
  std::vector<std::uint64_t> silent(WordsForParties(n), 0);
  std::vector<std::uint64_t> beeped(WordsForParties(n), 0);
  for (int r = 0; r < 2000; ++r) {
    channel.DeliverWords(0, silent, n, WordMode::kFast, rng_a);
    channel.DeliverWords(1, beeped, n, WordMode::kFast, rng_b);
    // Same seed, same flips: received = or_bit ^ flips, so the two runs
    // are exact complements on the valid lanes.
    for (std::size_t w = 0; w < silent.size(); ++w) {
      const std::uint64_t mask =
          w + 1 == silent.size() ? TailWordMask(n) : ~std::uint64_t{0};
      ASSERT_EQ(silent[w] & mask, ~beeped[w] & mask) << "round " << r;
    }
  }
  EXPECT_EQ(rng_a.SaveState(), rng_b.SaveState());
}

TEST(ChannelWords, ByteAdapterAgreesThroughADecorator) {
  // RecordingChannel forwards DeliverWords to its inner channel and
  // inherits the base-class byte adapter; the two views must agree bit
  // for bit.
  const CorrelatedNoisyChannel scalar_inner(0.1);
  const CorrelatedNoisyChannel word_inner(0.1);
  for (const std::int64_t n : kPartyCounts) {
    // Fresh recorders per n: the trace is per-run state.
    const RecordingChannel scalar_recording(scalar_inner);
    const RecordingChannel word_recording(word_inner);
    ExpectWordPathMatchesScalar(scalar_recording, word_recording, n,
                                WordMode::kStreamCompat, 8);
  }
}

TEST(ChannelWords, RecordingAndReplayRoundTripOnWords) {
  const IndependentNoisyChannel inner(0.2);
  const RecordingChannel recording(inner);
  const std::int64_t n = 70;
  Rng rng(kSeed);
  std::vector<std::uint64_t> words(WordsForParties(n), 0);
  std::vector<std::vector<std::uint64_t>> rounds;
  for (int r = 0; r < 16; ++r) {
    recording.DeliverWords(BeepersAt(r, n), words, n,
                           WordMode::kStreamCompat, rng);
    rounds.push_back(words);
  }
  const ReplayChannel replay(recording.trace(), inner.is_correlated());
  Rng unused(1);
  for (int r = 0; r < 16; ++r) {
    replay.DeliverWords(BeepersAt(r, n), words, n, WordMode::kFast, unused);
    EXPECT_EQ(words, rounds[static_cast<std::size_t>(r)]) << "round " << r;
  }
}

TEST(ChannelWords, RoundWordsSharesAccountingWithRound) {
  const CorrelatedNoisyChannel channel(0.1);
  const std::int64_t n = 130;
  Rng rng(kSeed);
  RoundEngine engine(channel, rng, n);
  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  engine.SetPhase("words");
  (void)engine.RoundWords(beeps);
  beeps[0] = 1;
  (void)engine.RoundWords(beeps);
  engine.SetPhase("scalar");
  const std::vector<std::uint8_t> scalar_beeps(static_cast<std::size_t>(n),
                                               0);
  (void)engine.Round(scalar_beeps);
  EXPECT_EQ(engine.rounds_used(), 3);
  EXPECT_EQ(engine.phase_rounds().at("words"), 2);
  EXPECT_EQ(engine.phase_rounds().at("scalar"), 1);
}

TEST(ChannelWords, RoundWordsMatchesRoundInStreamCompat) {
  const IndependentNoisyChannel channel(0.2);
  const std::int64_t n = 190;
  Rng scalar_rng(kSeed);
  Rng word_rng(kSeed);
  RoundEngine scalar_engine(channel, scalar_rng, n);
  RoundEngine word_engine(channel, word_rng, n);
  std::vector<std::uint8_t> beeps(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> beep_words(WordsForParties(n), 0);
  std::vector<std::uint64_t> packed(WordsForParties(n), 0);
  for (int r = 0; r < 16; ++r) {
    for (std::int64_t i = 0; i < n; ++i) {
      beeps[static_cast<std::size_t>(i)] = (i + r) % 97 == 0 ? 1 : 0;
    }
    PackBits(beeps, beep_words);
    const auto scalar_received = scalar_engine.Round(beeps);
    const auto word_received = word_engine.RoundWords(beep_words);
    PackBits(scalar_received, packed);
    ASSERT_EQ(std::vector<std::uint64_t>(word_received.begin(),
                                         word_received.end()),
              packed)
        << "round " << r;
  }
  EXPECT_EQ(scalar_rng.SaveState(), word_rng.SaveState());
}

TEST(ChannelWords, RoundWordsRejectsDirtyTailBits) {
  const CorrelatedNoisyChannel channel(0.1);
  const std::int64_t n = 70;
  Rng rng(kSeed);
  RoundEngine engine(channel, rng, n);
  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  beeps.back() = ~std::uint64_t{0};  // bits 6..63 are past num_parties
  EXPECT_THROW((void)engine.RoundWords(beeps), std::invalid_argument);
}

TEST(ChannelWords, FaultyRoundEngineWordPathMatchesScalarPath) {
  const IndependentNoisyChannel channel(0.2);
  const std::int64_t n = 100;
  FaultPlan plan(99);
  plan.CrashStop(3, 4)
      .StuckBeeper(64, 0, 7)   // second word: the straddle matters
      .Babbler(70, 2, 11, 0.7)
      .DeafReceiver(99, 0, 5);
  Rng scalar_rng(kSeed);
  Rng word_rng(kSeed);
  FaultyRoundEngine scalar_engine(channel, scalar_rng, n, plan);
  FaultyRoundEngine word_engine(channel, word_rng, n, plan);
  std::vector<std::uint8_t> beeps(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> beep_words(WordsForParties(n), 0);
  std::vector<std::uint64_t> packed(WordsForParties(n), 0);
  for (int r = 0; r < 16; ++r) {
    for (std::int64_t i = 0; i < n; ++i) {
      beeps[static_cast<std::size_t>(i)] = (i * 7 + r) % 31 == 0 ? 1 : 0;
    }
    PackBits(beeps, beep_words);
    const auto scalar_received = scalar_engine.Round(beeps);
    const auto word_received = word_engine.RoundWords(beep_words);
    PackBits(scalar_received, packed);
    ASSERT_EQ(std::vector<std::uint64_t>(word_received.begin(),
                                         word_received.end()),
              packed)
        << "round " << r;
  }
  EXPECT_EQ(scalar_rng.SaveState(), word_rng.SaveState());
}

TEST(ChannelWords, MegaRoundRunsAtMillionsOfParties) {
  // The point of the word path: a round over 2^20 parties is a routine
  // operation.  Fast mode, dense regime; spot-check the flip rate.
  const IndependentNoisyChannel channel(0.2);
  const std::int64_t n = std::int64_t{1} << 20;
  Rng rng(kSeed);
  RoundEngine engine(channel, rng, n);
  engine.SetWordMode(WordMode::kFast);
  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  const auto received = engine.RoundWords(beeps);
  std::int64_t ones = 0;
  for (const std::uint64_t w : received) ones += std::popcount(w);
  const double rate = static_cast<double>(ones) / static_cast<double>(n);
  EXPECT_NEAR(rate, 0.2, 0.01);
  EXPECT_EQ(engine.rounds_used(), 1);
}

TEST(ChannelWords, PackUnpackRoundTrip) {
  const std::int64_t n = 190;
  Rng rng(kSeed);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n), 0);
  for (auto& b : bytes) b = rng.Bit() ? 1 : 0;
  std::vector<std::uint64_t> words(WordsForParties(n), ~std::uint64_t{0});
  PackBits(bytes, words);
  EXPECT_EQ(words.back() & ~TailWordMask(n), 0u);
  std::vector<std::uint8_t> back(static_cast<std::size_t>(n), 0);
  UnpackBits(words, back);
  EXPECT_EQ(back, bytes);
}

// SharedBit is FillSharedWords' inverse: it answers the bit every listener
// holds, or nothing when two differ, and ignores the bits past n.
TEST(ChannelWords, SharedBitInvertsFillSharedWords) {
  for (const std::int64_t n : {1, 63, 64, 65, 130}) {
    std::vector<std::uint64_t> words(WordsForParties(n), 0);
    for (const bool bit : {false, true}) {
      FillSharedWords(words, n, bit);
      EXPECT_EQ(SharedBit(words, n), std::optional<bool>(bit)) << n;
      // Garbage past n does not count.
      if (n % 64 != 0) {
        std::vector<std::uint64_t> dirty = words;
        dirty.back() ^= ~TailWordMask(n);
        EXPECT_EQ(SharedBit(dirty, n), std::optional<bool>(bit)) << n;
      }
      if (n == 1) continue;  // a lone listener always agrees with itself
      // One listener off, in the first word or in the last one.
      for (const std::int64_t off : {std::int64_t{1}, n - 1}) {
        std::vector<std::uint64_t> split = words;
        SetPackedBit(split, off, !bit);
        EXPECT_EQ(SharedBit(split, n), std::nullopt)
            << "n=" << n << " off=" << off;
        SetPackedBit(split, off, bit);
        SetPackedBit(split, 0, !bit);
        EXPECT_EQ(SharedBit(split, n), std::nullopt)
            << "n=" << n << " party 0 off";
      }
    }
  }
  std::vector<std::uint64_t> words(2, 0);
  EXPECT_THROW((void)SharedBit(words, 64), std::invalid_argument);
}

TEST(ChannelWords, DeliverWordsValidatesItsPreconditions) {
  const CorrelatedNoisyChannel channel(0.1);
  Rng rng(kSeed);
  std::vector<std::uint64_t> words(2, 0);
  EXPECT_THROW(channel.DeliverWords(0, words, 0, WordMode::kFast, rng),
               std::invalid_argument);
  EXPECT_THROW(channel.DeliverWords(5, words, 4, WordMode::kFast, rng),
               std::invalid_argument);
  EXPECT_THROW(channel.DeliverWords(-1, words, 70, WordMode::kFast, rng),
               std::invalid_argument);
  EXPECT_THROW(channel.DeliverWords(0, words, 300, WordMode::kFast, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace noisybeeps
