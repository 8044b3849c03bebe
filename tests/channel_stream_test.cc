// Stream-identity audit for the channel hot path.
//
// PR "stream-identical channel hot-path optimisation" replaced the
// per-sample `UniformDouble() < p` coin flips in every Deliver
// implementation with precomputed fixed-point BernoulliSampler draws.
// The whole point of that change is that NO random stream moves: these
// tests drive every noisy channel from a fixed seed and check the
// delivered bits (a) against a reference implementation that still uses
// the historical double-compare path, draw by draw, and (b) against
// pinned seed-state goldens, so a future "optimisation" that perturbs
// either side fails loudly rather than silently invalidating every
// number in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "channel/adversary.h"
#include "channel/burst.h"
#include "channel/collision.h"
#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/one_sided.h"
#include "channel/shared_randomness.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

constexpr std::uint64_t kSeed = 20260805;
constexpr int kParties = 5;
constexpr int kRounds = 64;

// Deterministic beeper count for round r: cycles through 0, 1, 2, 0, ...
// so every channel sees silence, lone beeps, and collisions.
int BeepersAt(int r) { return r % 3; }

// The historical coin flip, byte for byte: one UniformDouble per draw.
bool RefFlip(Rng& rng, double p) { return rng.UniformDouble() < p; }

// Runs `channel` for kRounds from kSeed and renders party 0's received
// bits as a '0'/'1' string.  For the independent channel every party's
// stream matters, so all parties' bits are concatenated round-major.
std::string DeliveredStream(const Channel& channel, bool all_parties = false) {
  Rng rng(kSeed);
  std::vector<std::uint8_t> received(kParties, 0);
  std::string stream;
  for (int r = 0; r < kRounds; ++r) {
    channel.Deliver(BeepersAt(r), received, rng);
    if (all_parties) {
      for (std::uint8_t bit : received) stream += bit != 0 ? '1' : '0';
    } else {
      stream += received[0] != 0 ? '1' : '0';
    }
  }
  return stream;
}

TEST(ChannelStream, IndependentMatchesHistoricalPath) {
  const double eps = 0.2;
  const IndependentNoisyChannel channel(eps);
  Rng ref(kSeed);
  std::string expected;
  for (int r = 0; r < kRounds; ++r) {
    const bool or_bit = BeepersAt(r) > 0;
    for (int i = 0; i < kParties; ++i) {
      expected += (or_bit != RefFlip(ref, eps)) ? '1' : '0';
    }
  }
  EXPECT_EQ(DeliveredStream(channel, /*all_parties=*/true), expected);
}

TEST(ChannelStream, OneSidedUpMatchesHistoricalPath) {
  const double eps = 1.0 / 3.0;
  const OneSidedUpChannel channel(eps);
  Rng ref(kSeed);
  std::string expected;
  for (int r = 0; r < kRounds; ++r) {
    // Short-circuit is part of the stream contract: no draw when someone
    // beeped.
    const bool out = BeepersAt(r) > 0 || RefFlip(ref, eps);
    expected += out ? '1' : '0';
  }
  EXPECT_EQ(DeliveredStream(channel), expected);
}

TEST(ChannelStream, OneSidedDownMatchesHistoricalPath) {
  const double eps = 0.25;
  const OneSidedDownChannel channel(eps);
  Rng ref(kSeed);
  std::string expected;
  for (int r = 0; r < kRounds; ++r) {
    const bool out = BeepersAt(r) > 0 && !RefFlip(ref, eps);
    expected += out ? '1' : '0';
  }
  EXPECT_EQ(DeliveredStream(channel), expected);
}

TEST(ChannelStream, CorrelatedMatchesHistoricalPath) {
  const double eps = 0.1;
  const CorrelatedNoisyChannel channel(eps);
  Rng ref(kSeed);
  std::string expected;
  for (int r = 0; r < kRounds; ++r) {
    const bool out = (BeepersAt(r) > 0) != RefFlip(ref, eps);
    expected += out ? '1' : '0';
  }
  EXPECT_EQ(DeliveredStream(channel), expected);
}

TEST(ChannelStream, CollisionMatchesHistoricalPath) {
  const double eps = 0.15;
  const CollisionAsSilenceChannel channel(eps);
  Rng ref(kSeed);
  std::string expected;
  for (int r = 0; r < kRounds; ++r) {
    const bool clean = BeepersAt(r) == 1;
    expected += (clean != RefFlip(ref, eps)) ? '1' : '0';
  }
  EXPECT_EQ(DeliveredStream(channel), expected);

  // eps == 0 must consume no randomness at all.
  const CollisionAsSilenceChannel noiseless(0.0);
  Rng before(kSeed);
  Rng after(kSeed);
  std::vector<std::uint8_t> received(kParties, 0);
  noiseless.Deliver(1, received, after);
  EXPECT_EQ(before.NextU64(), after.NextU64());
}

TEST(ChannelStream, AdversaryMatchesHistoricalPath) {
  const double eps = 0.3;
  for (CorrectionPolicy policy :
       {CorrectionPolicy::kNever, CorrectionPolicy::kCorrectDrops,
        CorrectionPolicy::kCorrectSpurious, CorrectionPolicy::kCorrectAll}) {
    const AdversarialCorrectionChannel channel(eps, policy);
    Rng ref(kSeed);
    std::string expected;
    for (int r = 0; r < kRounds; ++r) {
      const bool or_bit = BeepersAt(r) > 0;
      bool out = or_bit != RefFlip(ref, eps);
      if (out != or_bit) {
        const bool is_drop = or_bit;
        const bool revert =
            policy == CorrectionPolicy::kCorrectAll ||
            (policy == CorrectionPolicy::kCorrectDrops && is_drop) ||
            (policy == CorrectionPolicy::kCorrectSpurious && !is_drop);
        if (revert) out = or_bit;
      }
      expected += out ? '1' : '0';
    }
    EXPECT_EQ(DeliveredStream(channel), expected)
        << "policy=" << static_cast<int>(policy);
  }
}

TEST(ChannelStream, BurstMatchesHistoricalPath) {
  const double eps_good = 0.01, eps_bad = 0.4, p_gb = 0.2, p_bg = 0.5;
  const BurstNoisyChannel channel(eps_good, eps_bad, p_gb, p_bg);
  Rng ref(kSeed);
  std::string expected;
  bool bad = false;
  for (int r = 0; r < kRounds; ++r) {
    if (bad) {
      if (RefFlip(ref, p_bg)) bad = false;
    } else {
      if (RefFlip(ref, p_gb)) bad = true;
    }
    const bool out = (BeepersAt(r) > 0) != RefFlip(ref, bad ? eps_bad
                                                            : eps_good);
    expected += out ? '1' : '0';
  }
  EXPECT_EQ(DeliveredStream(channel), expected);
}

TEST(ChannelStream, SharedRandomnessMatchesHistoricalPath) {
  const double up_eps = 1.0 / 3.0, flip = 0.25;
  const SharedRandomnessOneSidedAdapter channel(up_eps, flip);
  Rng ref(kSeed);
  std::string expected;
  for (int r = 0; r < kRounds; ++r) {
    bool bit = BeepersAt(r) > 0 || RefFlip(ref, up_eps);
    if (bit && RefFlip(ref, flip)) bit = false;
    expected += bit ? '1' : '0';
  }
  EXPECT_EQ(DeliveredStream(channel), expected);
}

// Seed-state goldens: the exact party-0 streams at kSeed.  These pin the
// realized noise itself (not just new-vs-reference agreement), so a
// change to the Rng, the threshold computation, or a channel's draw
// ORDER fails here even if it changes both sides of the tests above in
// the same way.  If a change to these values is INTENTIONAL, every
// number in EXPERIMENTS.md needs re-measuring.
TEST(ChannelStream, GoldenStreamsArePinned) {
  EXPECT_EQ(DeliveredStream(CorrelatedNoisyChannel(0.1)),
            "0110110010110110110010110110110110110111100010110110110111110110");
  EXPECT_EQ(DeliveredStream(OneSidedUpChannel(1.0 / 3.0)),
            "0110110111110110110111111111111111110110110110110110110111110111");
  EXPECT_EQ(DeliveredStream(IndependentNoisyChannel(0.2)),
            "0110110110011110101110100110100110100010111010110110100111110100");
  EXPECT_EQ(DeliveredStream(BurstNoisyChannel(0.01, 0.4, 0.2, 0.5)),
            "0110110110110110010111110101110111111110110100111110110101110110");
}

// Runs `channel` through the packed word path in `mode` and renders the
// received bits exactly as DeliveredStream does.
std::string DeliveredStreamWords(const Channel& channel, WordMode mode,
                                 bool all_parties = false) {
  Rng rng(kSeed);
  std::vector<std::uint64_t> words(WordsForParties(kParties), 0);
  std::string stream;
  for (int r = 0; r < kRounds; ++r) {
    channel.DeliverWords(BeepersAt(r), words, kParties, mode, rng);
    if (all_parties) {
      for (int i = 0; i < kParties; ++i) {
        stream += ((words[0] >> i) & 1u) != 0 ? '1' : '0';
      }
    } else {
      stream += (words[0] & 1u) != 0 ? '1' : '0';
    }
  }
  return stream;
}

// The word path in stream-compat mode is a drop-in for the scalar path:
// it must reproduce the SAME pinned goldens, not merely agree with a
// re-run of itself.  A compat regression that shifted the draw order
// would break the scalar goldens above and this test identically.
TEST(ChannelStream, WordStreamCompatReproducesTheGoldens) {
  EXPECT_EQ(DeliveredStreamWords(CorrelatedNoisyChannel(0.1),
                                 WordMode::kStreamCompat),
            "0110110010110110110010110110110110110111100010110110110111110110");
  EXPECT_EQ(DeliveredStreamWords(OneSidedUpChannel(1.0 / 3.0),
                                 WordMode::kStreamCompat),
            "0110110111110110110111111111111111110110110110110110110111110111");
  EXPECT_EQ(DeliveredStreamWords(IndependentNoisyChannel(0.2),
                                 WordMode::kStreamCompat),
            "0110110110011110101110100110100110100010111010110110100111110100");
  EXPECT_EQ(DeliveredStreamWords(BurstNoisyChannel(0.01, 0.4, 0.2, 0.5),
                                 WordMode::kStreamCompat),
            "0110110110110110010111110101110111111110110100111110110101110110");
  // The per-listener independent streams agree too, not just party 0.
  const IndependentNoisyChannel independent(0.2);
  EXPECT_EQ(DeliveredStreamWords(independent, WordMode::kStreamCompat,
                                 /*all_parties=*/true),
            DeliveredStream(independent, /*all_parties=*/true));
}

}  // namespace
}  // namespace noisybeeps
