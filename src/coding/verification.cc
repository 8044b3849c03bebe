#include "coding/verification.h"

#include <bit>

#include "util/require.h"

namespace noisybeeps {

std::size_t FirstViolationFromBeeps(int party_index, const BitString& beeped,
                                   const BitString& transcript,
                                   std::span<const int> owners,
                                   NoiseRegime regime) {
  NB_REQUIRE(beeped.size() == transcript.size(),
             "one recorded beep per transcript round");
  const bool two_sided = regime == NoiseRegime::kTwoSided;
  if (two_sided) {
    NB_REQUIRE(owners.size() == transcript.size(),
               "two-sided verification needs an owner per round");
  }
  const std::span<const std::uint64_t> beeped_words = beeped.words();
  const std::span<const std::uint64_t> transcript_words = transcript.words();
  for (std::size_t w = 0; w < transcript_words.size(); ++w) {
    // A 0 claims nobody beeped; this party knows better where it beeped 1.
    std::uint64_t bad = beeped_words[w] & ~transcript_words[w];
    if (two_sided) {
      // A 1 is bad if unowned (anyone may flag), or owned by this party
      // although it did not beep.  Slack bits are zero in both strings.
      for (std::uint64_t ones = transcript_words[w]; ones != 0;
           ones &= ones - 1) {
        const int bit = std::countr_zero(ones);
        const int owner =
            owners[w * BitString::kWordBits + static_cast<std::size_t>(bit)];
        const bool mine_unbeeped =
            owner == party_index && ((beeped_words[w] >> bit) & 1u) == 0;
        if (owner < 0 || mine_unbeeped) bad |= std::uint64_t{1} << bit;
      }
    }
    // In kDownOnly a received 1 is self-certifying: nothing to check.
    if (bad != 0) {
      return w * BitString::kWordBits +
             static_cast<std::size_t>(std::countr_zero(bad));
    }
  }
  return transcript.size();
}

std::size_t FirstViolation(const Protocol& protocol, int party_index,
                           const BitString& transcript,
                           const std::vector<int>& owners,
                           NoiseRegime regime, std::size_t from) {
  NB_REQUIRE(party_index >= 0 && party_index < protocol.num_parties(),
             "party index out of range");
  if (regime == NoiseRegime::kTwoSided) {
    NB_REQUIRE(owners.size() == transcript.size(),
               "two-sided verification needs an owner per round");
  }
  const Party& party = protocol.party(party_index);
  BitString prefix;
  for (std::size_t m = 0; m < transcript.size(); ++m) {
    const bool beeped = m < from ? false : party.ChooseBeep(prefix);
    if (m >= from) {
      if (!transcript[m]) {
        // A 0 claims nobody beeped; this party knows better if it beeped 1.
        if (beeped) return m;
      } else if (regime == NoiseRegime::kTwoSided) {
        const int owner = owners[m];
        if (owner < 0) return m;  // unowned 1: anyone may flag
        if (owner == party_index && !beeped) return m;  // my 1, but I didn't
      }
      // In kDownOnly a received 1 is self-certifying: nothing to check.
    }
    prefix.PushBack(transcript[m]);
  }
  return transcript.size();
}

std::vector<std::uint64_t> CommunicateFlags(
    RoundEngine& engine, const std::vector<std::uint8_t>& flags, int reps,
    FlagRule rule) {
  NB_REQUIRE(static_cast<std::int64_t>(flags.size()) == engine.num_parties(),
             "one flag per party");
  NB_REQUIRE(reps >= 1, "flag repetitions must be positive");
  std::vector<std::uint64_t> beeps(WordsForParties(engine.num_parties()), 0);
  PackBits(flags, beeps);
  const std::span<const std::uint64_t> verdict =
      engine.RepeatRound(beeps, reps, rule);
  return {verdict.begin(), verdict.end()};
}

std::vector<std::size_t> BinarySearchVerifiedPrefix(
    RoundEngine& engine, const std::vector<std::size_t>& first_violation,
    std::size_t total_len, int reps, FlagRule rule) {
  const auto n = static_cast<int>(engine.num_parties());
  NB_REQUIRE(static_cast<int>(first_violation.size()) == n,
             "one local violation index per party");

  // Each party maintains its own [lo, hi] bracket on the verified prefix
  // length; under a correlated channel all brackets evolve identically.
  struct Bracket {
    std::size_t lo;
    std::size_t hi;
  };
  std::vector<Bracket> bracket(n, Bracket{0, total_len});

  // Fixed iteration count so every party runs the same number of flag
  // exchanges regardless of how its own bracket narrows.
  int iterations = 0;
  for (std::size_t range = total_len; range > 0; range /= 2) ++iterations;

  std::vector<std::uint8_t> flags(n, 0);
  for (int it = 0; it < iterations; ++it) {
    for (int i = 0; i < n; ++i) {
      if (bracket[i].hi <= bracket[i].lo) {
        flags[i] = 0;  // bracket converged; stay silent in the exchange
        continue;
      }
      const std::size_t probe =
          bracket[i].lo + (bracket[i].hi - bracket[i].lo + 1) / 2;
      // Probe p asks: "is the prefix of length p clear?"  Party i flags
      // iff its first violation falls inside that prefix.
      flags[i] = first_violation[i] < probe ? 1 : 0;
    }
    const std::vector<std::uint64_t> verdict =
        CommunicateFlags(engine, flags, reps, rule);
    for (int i = 0; i < n; ++i) {
      if (bracket[i].hi <= bracket[i].lo) continue;
      const std::size_t probe =
          bracket[i].lo + (bracket[i].hi - bracket[i].lo + 1) / 2;
      if (PackedBit(verdict, i)) {
        bracket[i].hi = probe - 1;  // some party objects within `probe`
      } else {
        bracket[i].lo = probe;  // prefix of length `probe` looks clear
      }
    }
  }

  std::vector<std::size_t> result(n);
  for (int i = 0; i < n; ++i) result[i] = bracket[i].lo;
  return result;
}

}  // namespace noisybeeps
