// Execution tracing: record every round a channel delivers, and replay a
// recorded trace deterministically.
//
// RecordingChannel wraps any channel and logs (or-of-beeps, per-party
// delivered bits) for each round -- the raw material for debugging a
// simulator run, for offline noise statistics, and for regression
// fixtures.  ReplayChannel plays a recorded trace back verbatim (ignoring
// its Rng), so a puzzling noisy execution can be re-run bit-identically
// under a debugger or across code changes.
//
// Like the noise state of BurstNoisyChannel, the recording buffer is
// `mutable`: it is observational, not part of the channel's logical
// configuration.  Channels are not thread-safe.
#ifndef NOISYBEEPS_CHANNEL_TRACE_H_
#define NOISYBEEPS_CHANNEL_TRACE_H_

#include <iosfwd>
#include <vector>

#include "channel/channel.h"

namespace noisybeeps {

struct TraceRound {
  bool or_bit = false;                    // what the parties jointly sent
  std::vector<std::uint8_t> delivered;    // what each party received
};

using Trace = std::vector<TraceRound>;

// Writes "round,or,delivered..." CSV rows (one per round).
void WriteTraceCsv(const Trace& trace, std::ostream& os);

// Parses the format WriteTraceCsv emits (round-trip inverse).  Throws
// std::invalid_argument on malformed input.
[[nodiscard]] Trace ReadTraceCsv(std::istream& is);

// The number of rounds where some party's delivered bit differs from the
// OR that was sent (i.e. rounds the noise touched).
[[nodiscard]] std::size_t CountNoisyRounds(const Trace& trace);

class RecordingChannel final : public Channel {
 public:
  // Borrows `inner`; it must outlive this object.
  explicit RecordingChannel(const Channel& inner);

  // Forwards to the inner channel, then unpacks the result into the trace
  // (the trace format is byte-per-party).
  void DeliverWords(std::int64_t num_beepers,
                    std::span<std::uint64_t> received,
                    std::int64_t num_parties, WordMode mode,
                    Rng& rng) const override;
  [[nodiscard]] bool is_correlated() const override {
    return inner_->is_correlated();
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const Trace& trace() const { return trace_; }
  void ClearTrace() const { trace_.clear(); }

 private:
  const Channel* inner_;
  mutable Trace trace_;
};

class ReplayChannel final : public Channel {
 public:
  // Plays `trace` back round by round.  `correlated` declares what the
  // original channel was.
  // Precondition: every round of `trace` delivers to the same non-zero
  // number of parties (a ragged trace is rejected at construction).
  // Delivery fails loudly (std::invalid_argument via NB_REQUIRE) when
  // asked for more rounds than the trace holds or when the party count
  // differs from the recording -- replay divergence is a bug in the
  // caller, never silently absorbed.
  ReplayChannel(Trace trace, bool correlated);

  // Packs the next recorded round into words; ignores the rng.
  void DeliverWords(std::int64_t num_beepers,
                    std::span<std::uint64_t> received,
                    std::int64_t num_parties, WordMode mode,
                    Rng& rng) const override;
  [[nodiscard]] bool is_correlated() const override { return correlated_; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t rounds_remaining() const {
    return trace_.size() - next_;
  }
  void Rewind() const { next_ = 0; }

 private:
  Trace trace_;
  bool correlated_;
  mutable std::size_t next_ = 0;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_TRACE_H_
