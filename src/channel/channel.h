// The beeping channel abstraction.
//
// In every round, each of the n parties either beeps (1) or stays silent
// (0).  A Channel turns the round's BEEPER COUNT into the bit each party
// *receives*, applying its noise model.  The paper's beeping channels
// depend on the count only through the OR (count > 0); carrying the count
// additionally admits the neighbouring radio-network models the paper's
// related-work section situates itself against -- e.g. collision-as-
// silence, where two simultaneous beeps sound like none.  Correlated
// channels deliver the same bit to everyone (all parties share one
// transcript); the independent-noise channel delivers a per-party noisy
// copy (Section 1.2 of the paper).
//
// Delivery is word-packed: 64 listeners per u64 word (DeliverWords), from
// the channel through the round engine to the coding layer.  A byte per
// listener (Deliver) is an adapter over the packed path for tests and
// tooling.
// Party and beeper counts are std::int64_t throughout: the packed path
// simulates n in the millions and beyond, where `int` silently caps the
// count and invites overflow UB.
#ifndef NOISYBEEPS_CHANNEL_CHANNEL_H_
#define NOISYBEEPS_CHANNEL_CHANNEL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "util/rng.h"

namespace noisybeeps {

// How delivery treats the random stream:
//   kStreamCompat  draw-for-draw identical to the historical byte-per-
//                  listener stream: same seed => same bits AND the same
//                  number of NextU64 calls, so every golden (channel
//                  stream tests, EXPERIMENTS.md numbers) stays valid.
//                  Every simulator runs in this mode.
//   kFast          batched noise sampling -- geometric skip-sampling for
//                  sparse noise, bit-sliced word draws otherwise -- with
//                  its own goldens, gated by perfguard baselines.
// Shared-draw channels consume one draw per round either way, so for them
// the modes coincide by construction; only per-listener noise (the
// independent channel) distinguishes them.
enum class WordMode : std::uint8_t { kStreamCompat, kFast };

// Bits per packed word; words needed for n parties; the valid-bit mask of
// the LAST word (all-ones when n is a multiple of 64).  These mirror
// BitString's packing so a BitString::words() span is directly usable as
// a beep-word span.
inline constexpr std::int64_t kWordBits = 64;

[[nodiscard]] constexpr std::size_t WordsForParties(std::int64_t n) {
  return static_cast<std::size_t>((n + kWordBits - 1) / kWordBits);
}

[[nodiscard]] constexpr std::uint64_t TailWordMask(std::int64_t n) {
  return n % kWordBits == 0
             ? ~std::uint64_t{0}
             : (std::uint64_t{1} << (n % kWordBits)) - 1;
}

// Bit i of a packed span: party i's beep or received bit.
[[nodiscard]] inline bool PackedBit(std::span<const std::uint64_t> words,
                                   std::int64_t i) {
  return ((words[static_cast<std::size_t>(i / kWordBits)] >>
           (i % kWordBits)) &
          1u) != 0;
}

inline void SetPackedBit(std::span<std::uint64_t> words, std::int64_t i,
                         bool value) {
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  std::uint64_t& word = words[static_cast<std::size_t>(i / kWordBits)];
  word = value ? word | mask : word & ~mask;
}

// Every listener hears `bit`: all-ones (masked to the valid tail bits) or
// all-zeros.  Precondition: words.size() == WordsForParties(n).
void FillSharedWords(std::span<std::uint64_t> words, std::int64_t n,
                     bool bit);

// The inverse of FillSharedWords: the bit all n listeners hold, or nullopt
// when two of them differ.  Bits past n in the last word are ignored.
// Precondition: words.size() == WordsForParties(n), n >= 1.
[[nodiscard]] std::optional<bool> SharedBit(
    std::span<const std::uint64_t> words, std::int64_t n);

// Packs one byte per listener into words (tail bits zeroed) and back.
// Preconditions: words.size() == WordsForParties(bytes.size()).
void PackBits(std::span<const std::uint8_t> bytes,
              std::span<std::uint64_t> words);
void UnpackBits(std::span<const std::uint64_t> words,
                std::span<std::uint8_t> bytes);

class Channel {
 public:
  virtual ~Channel() = default;

  // Delivers one round.  `num_beepers` is the number of parties beeping
  // this round (passing a bool works too: the OR converts to 0/1);
  // `received` holds WordsForParties(num_parties) words, bit i of word w
  // is what party w*64+i hears, and the unused tail bits of the last word
  // come back zero (so callers can OR and popcount the result without
  // masking).  The rng drives the channel noise for this round.
  // Preconditions: num_parties >= 1, 0 <= num_beepers <= num_parties,
  // received.size() == WordsForParties(num_parties).
  virtual void DeliverWords(std::int64_t num_beepers,
                            std::span<std::uint64_t> received,
                            std::int64_t num_parties, WordMode mode,
                            Rng& rng) const = 0;

  // Byte-per-listener view of DeliverWords in kStreamCompat mode:
  // received[i] is set to the bit (0/1) party i hears.  Allocates a word
  // buffer per call, so it is for tests and tooling, never a round loop.
  // Virtual only so a forwarding decorator can observe the calls.
  // Preconditions: received is non-empty, 0 <= num_beepers <=
  // received.size().
  virtual void Deliver(std::int64_t num_beepers,
                       std::span<std::uint8_t> received, Rng& rng) const;

  // True when every party is guaranteed to receive the same bit, i.e. the
  // parties share a single transcript.
  [[nodiscard]] virtual bool is_correlated() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  // Shared precondition checks for DeliverWords implementations.
  static void CheckWordDelivery(std::int64_t num_beepers,
                                std::span<const std::uint64_t> received,
                                std::int64_t num_parties);
};

// A channel on which every listener hears the same outcome in each round:
// every built-in channel except the independent-noise one.  It defines
// only that outcome; delivery fills every listener's bit from it.  One
// outcome per round means the word modes coincide by construction.
class SharedDrawChannel : public Channel {
 public:
  // The bit every listener hears this round, drawn from `rng` per the
  // channel's noise model.  Precondition: num_beepers >= 0.
  [[nodiscard]] virtual bool SharedOutcome(std::int64_t num_beepers,
                                           Rng& rng) const = 0;

  void DeliverWords(std::int64_t num_beepers,
                    std::span<std::uint64_t> received,
                    std::int64_t num_parties, WordMode mode,
                    Rng& rng) const final;
  [[nodiscard]] bool is_correlated() const final { return true; }
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_CHANNEL_H_
