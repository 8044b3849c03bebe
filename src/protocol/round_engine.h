// RoundEngine: the round budget meter the interactive-coding schemes draw
// noisy rounds from.
//
// A simulator (coding/) is itself a protocol over the noisy channel, but
// writing it as explicit f_m^i functions would be hopeless; instead the
// simulator code orchestrates the parties imperatively and calls
// RoundEngine::RoundWords once per noisy round.  The engine applies the
// channel, counts the rounds consumed (the quantity Theorems 1.1/1.2 are
// about), and hands back what each party received.  The "distributed
// discipline" -- party i's beep decision may depend only on party i's
// local state plus previously received bits -- is kept by code structure
// and is what the simulator modules document and the tests probe.
//
// Rounds are word-packed, 64 parties per u64 (see docs/PERFORMANCE.md);
// Round is a byte-per-party adapter for tests and tooling.  Party counts
// are std::int64_t: a round can carry millions of parties, beyond `int`.
// SharedRound is the one-bit round for an engine whose every party is
// certain to hear the same bit; the repeated phases (RepeatRound in
// coding/verification.h) run through it and fall back to RoundWords
// when the engine declines.
#ifndef NOISYBEEPS_PROTOCOL_ROUND_ENGINE_H_
#define NOISYBEEPS_PROTOCOL_ROUND_ENGINE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "channel/channel.h"

namespace noisybeeps {

class RoundEngine {
 public:
  // The engine borrows the channel and rng; both must outlive it.
  RoundEngine(const Channel& channel, Rng& rng, std::int64_t num_parties);
  virtual ~RoundEngine() = default;

  // Not copyable/movable: the engine caches an interior pointer into its
  // phase-accounting map (and hands out spans into received_), so a copy
  // would alias the wrong instance's state.
  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  [[nodiscard]] std::int64_t num_parties() const { return num_parties_; }

  // Runs one noisy round: bit i of beep_words[w] is 1 iff party w*64+i
  // beeps; the result is packed the same way (valid until the next call,
  // tail bits of the last word zero).  Virtual so that fault/injection.h
  // can wrap the round boundary (send-side faults before the channel sees
  // the beeper count, receive-side faults after delivery) without the
  // simulators or the Channel implementations noticing.  A subclass that
  // overrides RoundWords to change what parties hear must override
  // SharedRound too (declining it, as FaultyRoundEngine does under a
  // plan), or the repeated phases would skip its change.
  // Preconditions: beep_words.size() == WordsForParties(num_parties()),
  // and the unused tail bits of the last beep word are zero.
  virtual std::span<const std::uint64_t> RoundWords(
      std::span<const std::uint64_t> beep_words);

  // Runs one noisy round in which `num_beepers` parties beep and every
  // party is certain to hear the same bit, and returns that bit: the
  // channel's SharedOutcome, which is the draw RoundWords' delivery makes,
  // counted under the current phase as RoundWords counts it.  The round
  // costs O(1), not O(num_parties() / 64).  Returns nullopt, drawing
  // nothing and counting no round, when the engine cannot promise one bit
  // for everyone: its channel is not a SharedDrawChannel (the independent
  // channel, the trace wrappers), or a subclass rewrites per-party bits.
  // Precondition: 0 <= num_beepers <= num_parties().
  virtual std::optional<bool> SharedRound(std::int64_t num_beepers);

  // Byte-per-party view of RoundWords: beeps[i] != 0 iff party i beeps;
  // returns the per-party received bits (0/1), valid until the next call.
  // Packs, runs RoundWords, unpacks -- for tests and tooling, not for
  // round loops.  Precondition: beeps.size() == num_parties().
  std::span<const std::uint8_t> Round(std::span<const std::uint8_t> beeps);

  // Stream discipline for delivery: kStreamCompat (the default, and what
  // every simulator runs) consumes the rng draw-for-draw like the
  // historical byte path; kFast batches noise sampling (its own stream).
  void SetWordMode(WordMode mode) { word_mode_ = mode; }
  [[nodiscard]] WordMode word_mode() const { return word_mode_; }

  // Total noisy rounds consumed so far.
  [[nodiscard]] std::int64_t rounds_used() const { return rounds_used_; }

  // Labels subsequent rounds for cost accounting (e.g. "chunk-sim",
  // "owner-finding", "verify-flags", "audit").  Purely observational: the
  // label has no effect on channel behaviour.
  void SetPhase(std::string phase) {
    phase_ = std::move(phase);
    // Invalidate the cached counter; the next round re-resolves it (and
    // only then creates the map entry, so zero-round phases never appear
    // in phase_rounds()).  std::map nodes are stable, so the resolved
    // pointer survives later insertions.
    phase_counter_ = nullptr;
  }

  // The current phase label ("" before any SetPhase call).
  [[nodiscard]] const std::string& phase() const { return phase_; }

  // Rounds consumed per phase label (rounds before any SetPhase call are
  // accounted under "").
  [[nodiscard]] const std::map<std::string, std::int64_t>& phase_rounds()
      const {
    return phase_rounds_;
  }

  [[nodiscard]] const Channel& channel() const { return *channel_; }
  [[nodiscard]] Rng& rng() { return *rng_; }

  // Throws std::invalid_argument unless `beep_words` meets RoundWords'
  // preconditions.  Wrappers call it before copying the span, and
  // RepeatRound before it counts the beepers for SharedRound.
  void CheckBeepWords(std::span<const std::uint64_t> beep_words) const;

 private:
  // Counts one round under the current phase.
  void CountRound();

  const Channel* channel_;
  // channel_ when it draws one outcome for every listener, else nullptr.
  const SharedDrawChannel* shared_channel_;
  Rng* rng_;
  std::int64_t num_parties_;
  WordMode word_mode_ = WordMode::kStreamCompat;
  std::int64_t rounds_used_ = 0;
  std::vector<std::uint64_t> received_words_;
  // Round's packing buffers, sized on its first call.
  std::vector<std::uint64_t> beep_words_;
  std::vector<std::uint8_t> received_;
  std::string phase_;
  std::map<std::string, std::int64_t> phase_rounds_;
  // Points at phase_rounds_[phase_] once the first round of the current
  // phase has run; nullptr until then (see SetPhase / CountRound).
  std::int64_t* phase_counter_ = nullptr;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_PROTOCOL_ROUND_ENGINE_H_
