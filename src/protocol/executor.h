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
//
// Each protocol round is one RoundEngine::RepeatRound of its beeps: one
// noisy round by default, or `reps` majority-decoded repetitions, which is
// the repetition simulator (coding/repetition_sim.h, footnote 1).
#ifndef NOISYBEEPS_PROTOCOL_EXECUTOR_H_
#define NOISYBEEPS_PROTOCOL_EXECUTOR_H_

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

// Runs `protocol` for its full length, one engine.RepeatRound of `reps`
// noisy rounds per protocol round, majority-decoded (at reps = 1 each
// party receives the round's bit): the engine's channel, rng and any
// fault wrapping decide what each party receives.
// Preconditions: engine.num_parties() == protocol.num_parties(),
// reps >= 1.
[[nodiscard]] ExecutionResult Execute(const Protocol& protocol,
                                      RoundEngine& engine, int reps = 1);

// Runs `protocol` for its full length over `channel`, one round per
// protocol round, on a plain RoundEngine.
[[nodiscard]] ExecutionResult Execute(const Protocol& protocol,
                                      const Channel& channel, Rng& rng);

}  // namespace noisybeeps

#endif  // NOISYBEEPS_PROTOCOL_EXECUTOR_H_
