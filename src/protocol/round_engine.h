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
// RepeatRound is the repetition code of every repeated phase.  Whether its
// repetitions are one shared bit or a count per party is decided once, at
// construction, from the channel and from whether a subclass rewrites
// per-party bits.
#ifndef NOISYBEEPS_PROTOCOL_ROUND_ENGINE_H_
#define NOISYBEEPS_PROTOCOL_ROUND_ENGINE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "channel/channel.h"

namespace noisybeeps {

// How RepeatRound decodes a party's repetitions.
enum class FlagRule {
  kMajority,  // decoded flag = majority of the repetitions (two-sided ML)
  kAnyOne,    // decoded flag = 1 iff any repetition read 1 (exact under
              // one-sided-down noise, where a received 1 is never spurious)
};

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
  // overrides RoundWords to change what parties hear constructs the engine
  // as rewriting per-party bits (see the protected constructor).
  // Preconditions: beep_words.size() == WordsForParties(num_parties()),
  // and the unused tail bits of the last beep word are zero.
  virtual std::span<const std::uint64_t> RoundWords(
      std::span<const std::uint64_t> beep_words);

  // Runs `reps` noisy rounds of the same packed beeps and returns each
  // party's decoded bit under `rule`, packed the same way (valid until the
  // next call, tail bits zero).  The repetition code of every repeated
  // phase: chunk simulation, Execute with reps > 1, and the flag exchanges
  // of coding/verification.h; with reps = 1, the owner phase's rounds on an
  // engine that shares them.  When the engine shares rounds, each
  // repetition is the channel's one SharedOutcome draw -- the draw
  // RoundWords' delivery makes -- counted once for every party; otherwise
  // each runs through RoundWords and every party's count of received 1s is
  // kept bit-sliced.  Either way the rounds, the draws and the result are
  // the same.
  // Preconditions: reps >= 1, and beeps meets RoundWords' preconditions.
  std::span<const std::uint64_t> RepeatRound(
      std::span<const std::uint64_t> beeps, int reps, FlagRule rule);

  // True when every party is certain to hear the same bit in every round,
  // so RepeatRound costs O(1) per repetition, not O(num_parties() / 64):
  // the channel is a SharedDrawChannel (not the independent channel or a
  // trace wrapper), and the engine was not constructed as rewriting
  // per-party bits.
  [[nodiscard]] bool shares_rounds() const {
    return shared_channel_ != nullptr;
  }

  // Byte-per-party view of RoundWords: beeps[i] != 0 iff party i beeps;
  // returns the per-party received bits (0/1), valid until the next call.
  // Packs, runs RoundWords, unpacks -- for tests and tooling, not for
  // round loops.  Precondition: beeps.size() == num_parties().
  std::span<const std::uint8_t> Round(std::span<const std::uint8_t> beeps);

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

  // Rounds consumed per phase label (rounds before any SetPhase call are
  // accounted under "").
  [[nodiscard]] const std::map<std::string, std::int64_t>& phase_rounds()
      const {
    return phase_rounds_;
  }

 protected:
  // For a subclass whose RoundWords changes what parties hear: with
  // `rewrites_bits` set, the engine never shares rounds, so RepeatRound
  // sends every repetition through the override.
  RoundEngine(const Channel& channel, Rng& rng, std::int64_t num_parties,
              bool rewrites_bits);

  // Throws std::invalid_argument unless `beep_words` meets RoundWords'
  // preconditions.  Wrappers call it before copying the span.
  void CheckBeepWords(std::span<const std::uint64_t> beep_words) const;

 private:
  // Counts one round under the current phase.
  void CountRound();

  const Channel* channel_;
  // channel_ when every party hears one outcome per round (shares_rounds),
  // else nullptr.
  const SharedDrawChannel* shared_channel_;
  Rng* rng_;
  std::int64_t num_parties_;
  std::int64_t rounds_used_ = 0;
  std::vector<std::uint64_t> received_words_;
  // RepeatRound's result, and its bit-sliced counts (sized per call).
  std::vector<std::uint64_t> decoded_;
  std::vector<std::uint64_t> planes_;
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
