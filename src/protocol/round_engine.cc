#include "protocol/round_engine.h"

#include "util/math.h"
#include "util/require.h"

namespace noisybeeps {

RoundEngine::RoundEngine(const Channel& channel, Rng& rng,
                         std::int64_t num_parties)
    : channel_(&channel),
      // By type, never by is_correlated(): a decorator that forwards
      // is_correlated() (RecordingChannel, ReplayChannel) must still see
      // every delivery, so it takes the word path.
      shared_channel_(dynamic_cast<const SharedDrawChannel*>(&channel)),
      rng_(&rng),
      num_parties_(num_parties),
      received_words_(WordsForParties(num_parties), 0) {
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
                         word_mode_, *rng_);
  CountRound();
  return received_words_;
}

std::optional<bool> RoundEngine::SharedRound(std::int64_t num_beepers) {
  NB_REQUIRE(num_beepers >= 0 && num_beepers <= num_parties_,
             "beeper count out of [0, num_parties]");
  if (shared_channel_ == nullptr) return std::nullopt;
  // SharedDrawChannel::DeliverWords fills every listener's bit from this
  // same draw in either word mode, so the stream does not see the
  // difference.
  const bool bit = shared_channel_->SharedOutcome(num_beepers, *rng_);
  CountRound();
  return bit;
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
