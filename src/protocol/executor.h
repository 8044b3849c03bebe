// Direct execution of a protocol over a channel.
//
// This is the paper's execution semantics (Appendix A.1.1) verbatim: in
// round m each party beeps f_m^i(x^i, its transcript so far), the channel
// delivers a (possibly noisy) version of the OR, parties append what they
// received and continue.  Under a correlated channel all parties share one
// transcript; under the independent channel each party feeds its own noisy
// transcript back into its own broadcast functions.
//
// One transcript until the parties diverge: while every party has received
// the same bits, all transcripts are one BitString, and one
// Protocol::BeepWords call gives every party's beep for it.  At the first
// round whose delivered bits are not all equal, that transcript is copied
// into n per-party transcripts, and from then on each party decides from
// its own by ChooseBeep.  Party purity makes the two phases the same
// execution: rounds, rng draws and results do not depend on where the
// switch happens.
#ifndef NOISYBEEPS_PROTOCOL_EXECUTOR_H_
#define NOISYBEEPS_PROTOCOL_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "channel/channel.h"
#include "protocol/protocol.h"
#include "protocol/round_engine.h"

namespace noisybeeps {

struct ExecutionResult {
  // Per-party transcripts.  Under a correlated channel these are all
  // identical; `shared()` returns the common one.
  std::vector<BitString> transcripts;
  // g^i evaluated on party i's transcript.
  std::vector<PartyOutput> outputs;
  // The first protocol round whose delivered bits differed between
  // parties (-1 = every party received the same bits in every round).
  int first_divergent_round = -1;

  [[nodiscard]] const BitString& shared() const { return transcripts.front(); }
};

// One protocol round's delivery: the packed beeps in (bit i of word w is
// party w*64+i's, as for RoundEngine::RoundWords), each party's received
// bit out, packed the same way in WordsForParties(n) words and valid until
// the next call.
using RoundDelivery = std::function<std::span<const std::uint64_t>(
    std::span<const std::uint64_t>)>;

// Runs `protocol` for its full length, one `deliver` call per protocol
// round, sharing one transcript until the parties diverge (see above).
[[nodiscard]] ExecutionResult Execute(const Protocol& protocol,
                                      const RoundDelivery& deliver);

// Runs `protocol` for its full length, one engine round per protocol
// round: the engine's channel, rng and any fault wrapping decide what each
// party receives.  Precondition: engine.num_parties() ==
// protocol.num_parties().
[[nodiscard]] ExecutionResult Execute(const Protocol& protocol,
                                      RoundEngine& engine);

// Runs `protocol` for its full length over `channel`, in stream-compat
// mode.
[[nodiscard]] ExecutionResult Execute(const Protocol& protocol,
                                      const Channel& channel, Rng& rng);

}  // namespace noisybeeps

#endif  // NOISYBEEPS_PROTOCOL_EXECUTOR_H_
