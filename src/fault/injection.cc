#include "fault/injection.h"

#include <algorithm>

#include "util/require.h"

namespace noisybeeps {

FaultInjector::FaultInjector(const FaultPlan& plan, std::int64_t num_parties)
    : specs_(plan.specs()) {
  NB_REQUIRE(plan.MaxParty() < num_parties,
             "fault plan names a party the execution does not have");
  babbler_rngs_.reserve(specs_.size());
  for (std::size_t k = 0; k < specs_.size(); ++k) {
    // One decorrelated stream per spec: distinct SplitMix64 seed chains
    // keyed by (plan seed, spec index).  Never touches the channel rng, so
    // adding or removing a babbler cannot shift the noise realization.
    babbler_rngs_.emplace_back(plan.seed() ^
                               (0x9e3779b97f4a7c15ULL * (k + 1)));
  }
}

void FaultInjector::ApplySendWords(std::int64_t round,
                                   std::span<std::uint64_t> beeps) {
  for (std::size_t k = 0; k < specs_.size(); ++k) {
    const FaultSpec& spec = specs_[k];
    if (!spec.ActiveAt(round)) continue;
    switch (spec.kind) {
      case FaultKind::kCrashStop:
      case FaultKind::kSleepy:
        SetPackedBit(beeps, spec.party, false);
        break;
      case FaultKind::kStuckBeeper:
        SetPackedBit(beeps, spec.party, true);
        break;
      case FaultKind::kBabbler:
        // The draw happens unconditionally: the babbler stream position
        // stays a function of the round index alone.
        SetPackedBit(beeps, spec.party,
                     babbler_rngs_[k].Bernoulli(spec.beep_prob));
        break;
      case FaultKind::kDeafReceiver:
        break;  // send side untouched
    }
  }
}

void FaultInjector::ApplyReceiveWords(std::int64_t round,
                                      std::span<std::uint64_t> received) {
  for (const FaultSpec& spec : specs_) {
    if (!spec.ActiveAt(round)) continue;
    switch (spec.kind) {
      case FaultKind::kCrashStop:
      case FaultKind::kSleepy:
      case FaultKind::kDeafReceiver:
        SetPackedBit(received, spec.party, false);
        break;
      case FaultKind::kStuckBeeper:
      case FaultKind::kBabbler:
        break;  // receive side untouched
    }
  }
}

FaultyRoundEngine::FaultyRoundEngine(const Channel& channel, Rng& rng,
                                     std::int64_t num_parties,
                                     const FaultPlan& plan)
    : RoundEngine(channel, rng, num_parties, /*rewrites_bits=*/!plan.empty()),
      injector_(plan, num_parties),
      faulted_beep_words_(WordsForParties(num_parties), 0),
      faulted_received_words_(WordsForParties(num_parties), 0) {
  NB_REQUIRE(plan.MaxParty() < num_parties,
             "fault plan names a party the engine does not have");
}

std::span<const std::uint64_t> FaultyRoundEngine::RoundWords(
    std::span<const std::uint64_t> beep_words) {
  if (!injector_.active()) return RoundEngine::RoundWords(beep_words);
  // Validate before the copy: the buffers are sized for num_parties().
  CheckBeepWords(beep_words);
  const std::int64_t round = rounds_used();
  std::copy(beep_words.begin(), beep_words.end(),
            faulted_beep_words_.begin());
  injector_.ApplySendWords(round, faulted_beep_words_);
  const std::span<const std::uint64_t> received =
      RoundEngine::RoundWords(faulted_beep_words_);
  std::copy(received.begin(), received.end(),
            faulted_received_words_.begin());
  injector_.ApplyReceiveWords(round, faulted_received_words_);
  return faulted_received_words_;
}

ExecutionResult Execute(const Protocol& protocol, const Channel& channel,
                        const FaultPlan& plan, Rng& rng) {
  FaultyRoundEngine engine(channel, rng, protocol.num_parties(), plan);
  return Execute(protocol, engine);
}

}  // namespace noisybeeps
