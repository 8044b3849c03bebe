// Direct execution of a protocol over a channel, and the round loop every
// repetition-coded simulation runs.
//
// This is the paper's execution semantics (Appendix A.1.1) verbatim: in
// round m each party beeps f_m^i(x^i, its transcript so far), the channel
// delivers a (possibly noisy) version of the OR, parties append what they
// received and continue.  Under a correlated channel all parties share one
// transcript; under the independent channel each party feeds its own noisy
// transcript back into its own broadcast functions.
//
// One loop, one transcript until the parties diverge: ExtendTranscripts
// runs protocol rounds from the parties' current transcripts, a PerParty
// (util/per_party.h).  While it holds one transcript for every party, it
// grows that one, and one Protocol::BeepWords call gives every party's beep
// for it.  At the first round whose delivered bits are not all equal (or
// at once, if the transcripts enter split), each party appends its own
// bit to its own copy and from then on decides from it by ChooseBeep.
// Party purity makes the two phases the same execution: rounds, rng draws
// and results do not depend on where the switch happens.
//
// Each protocol round is one RoundEngine::RepeatRound of its beeps: one
// noisy round by default, or `reps` majority-decoded repetitions.  Execute
// runs the protocol's T rounds from empty transcripts (with reps > 1 that
// is the repetition simulator, coding/repetition_sim.h, footnote 1); chunk
// simulation (coding/chunk_sim.h) runs a chunk's rounds from the parties'
// committed prefixes.
#ifndef NOISYBEEPS_PROTOCOL_EXECUTOR_H_
#define NOISYBEEPS_PROTOCOL_EXECUTOR_H_

#include <vector>

#include "channel/channel.h"
#include "protocol/protocol.h"
#include "protocol/round_engine.h"
#include "util/per_party.h"

namespace noisybeeps {

struct ExecutionResult {
  // Per-party transcripts.  Under a correlated channel these are all
  // identical; `shared()` returns the common one.
  PerParty<BitString> transcripts;
  // g^i evaluated on party i's transcript.
  std::vector<PartyOutput> outputs;
  // The first protocol round whose delivered bits differed between
  // parties (-1 = every party received the same bits in every round).
  int first_divergent_round = -1;

  [[nodiscard]] const BitString& shared() const { return transcripts.front(); }
};

// Runs `rounds` more protocol rounds from the parties' current
// transcripts, one engine.RepeatRound of `reps` noisy rounds per protocol
// round, majority-decoded, and appends to transcripts[i] the bit party i
// decoded in each.  When `beeped` is non-null, appends to (*beeped)[i] the
// bit party i beeped in each round.  Returns the round, counted from the
// protocol's start, whose delivered bits differed while the transcripts
// were held once, or -1 if there was none in this call (which includes a
// call entered with split transcripts).
// Preconditions: engine.num_parties() == protocol.num_parties() ==
// transcripts.size() (== beeped->size()), reps >= 1, rounds >= 0, every
// transcript has the same length, and that length plus `rounds` is at most
// protocol.length().
[[nodiscard]] int ExtendTranscripts(const Protocol& protocol,
                                    RoundEngine& engine, int reps, int rounds,
                                    PerParty<BitString>& transcripts,
                                    std::vector<BitString>* beeped = nullptr);

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
