#include "protocol/round_engine.h"

#include <bit>

#include "util/math.h"
#include "util/require.h"

namespace noisybeeps {

RoundEngine::RoundEngine(const Channel& channel, Rng& rng,
                         std::int64_t num_parties)
    : RoundEngine(channel, rng, num_parties, /*rewrites_bits=*/false) {}

RoundEngine::RoundEngine(const Channel& channel, Rng& rng,
                         std::int64_t num_parties, bool rewrites_bits)
    : channel_(&channel),
      // By type, never by is_correlated(): a decorator that forwards
      // is_correlated() (RecordingChannel, ReplayChannel) must still see
      // every delivery, so it takes the word path.
      shared_channel_(rewrites_bits
                          ? nullptr
                          : dynamic_cast<const SharedDrawChannel*>(&channel)),
      rng_(&rng),
      num_parties_(num_parties),
      received_words_(WordsForParties(num_parties), 0),
      decoded_(received_words_.size(), 0) {
  NB_REQUIRE(num_parties >= 1, "need at least one party");
}

void RoundEngine::CheckBeepWords(
    std::span<const std::uint64_t> beep_words) const {
  NB_REQUIRE(beep_words.size() == WordsForParties(num_parties_),
             "beep word span has wrong size");
  NB_REQUIRE((beep_words.back() & ~TailWordMask(num_parties_)) == 0,
             "beep word tail bits past num_parties must be zero");
}

std::span<const std::uint64_t> RoundEngine::RoundWords(
    std::span<const std::uint64_t> beep_words) {
  CheckBeepWords(beep_words);
  std::int64_t num_beepers = 0;
  for (std::uint64_t w : beep_words) num_beepers += WordPopCount(w);
  channel_->DeliverWords(num_beepers, received_words_, num_parties_,
                         WordMode::kStreamCompat, *rng_);
  CountRound();
  return received_words_;
}

std::span<const std::uint64_t> RoundEngine::RepeatRound(
    std::span<const std::uint64_t> beeps, int reps, FlagRule rule) {
  NB_REQUIRE(reps >= 1, "repetitions must be positive");
  CheckBeepWords(beeps);
  // A party decodes 1 iff its count of received 1s reaches the rule's
  // threshold: half the repetitions rounded up for kMajority
  // (2 * count >= reps), one for kAnyOne.
  const unsigned threshold =
      rule == FlagRule::kMajority ? static_cast<unsigned>(reps + 1) / 2 : 1;

  if (shares_rounds()) {
    // Every party hears each repetition alike, so one scalar counts them
    // for everyone.  SharedDrawChannel::DeliverWords fills every
    // listener's bit from this same draw, so the stream does not see the
    // difference.
    std::int64_t num_beepers = 0;
    for (const std::uint64_t w : beeps) num_beepers += WordPopCount(w);
    unsigned ones = 0;
    for (int t = 0; t < reps; ++t) {
      ones += shared_channel_->SharedOutcome(num_beepers, *rng_) ? 1 : 0;
      CountRound();
    }
    FillSharedWords(decoded_, num_parties_, ones >= threshold);
    return decoded_;
  }

  // Every party's count of received 1s, bit-sliced.  Plane k holds bit k
  // of the counts, 64 parties per word, so a round adds into all counts
  // with a ripple carry over the planes instead of a loop over the
  // parties.  Counts never exceed reps < 2^num_planes.
  const std::size_t words = decoded_.size();
  const int num_planes = std::bit_width(static_cast<unsigned>(reps));
  planes_.assign(words * num_planes, 0);
  for (int t = 0; t < reps; ++t) {
    const std::span<const std::uint64_t> received = RoundWords(beeps);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t carry = received[w];
      for (int k = 0; carry != 0 && k < num_planes; ++k) {
        std::uint64_t& plane = planes_[k * words + w];
        const std::uint64_t next = plane & carry;
        plane ^= carry;
        carry = next;
      }
    }
  }
  // Compare 64 counts with the threshold at a time, from the top plane
  // down.
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t greater = 0;
    std::uint64_t equal = ~std::uint64_t{0};
    for (int k = num_planes - 1; k >= 0; --k) {
      const std::uint64_t count_bit = planes_[k * words + w];
      const std::uint64_t threshold_bit =
          ((threshold >> k) & 1u) != 0 ? ~std::uint64_t{0} : 0;
      greater |= equal & count_bit & ~threshold_bit;
      equal &= ~(count_bit ^ threshold_bit);
    }
    // Tail lanes receive no 1s and every threshold is at least 1, so the
    // tail bits decode to 0.
    decoded_[w] = greater | equal;
  }
  return decoded_;
}

void RoundEngine::CountRound() {
  ++rounds_used_;
  // Resolve the phase counter at most once per SetPhase, not per round:
  // a phase gets a map entry only once a round actually runs under it
  // (so phase_rounds() never reports zero-round phases), and every later
  // round is a plain pointer increment instead of a string-keyed lookup.
  if (phase_counter_ == nullptr) phase_counter_ = &phase_rounds_[phase_];
  ++*phase_counter_;
}

std::span<const std::uint8_t> RoundEngine::Round(
    std::span<const std::uint8_t> beeps) {
  NB_REQUIRE(static_cast<std::int64_t>(beeps.size()) == num_parties_,
             "beeps vector has wrong size");
  beep_words_.resize(received_words_.size());
  received_.resize(beeps.size());
  PackBits(beeps, beep_words_);
  UnpackBits(RoundWords(beep_words_), received_);
  return received_;
}

}  // namespace noisybeeps
