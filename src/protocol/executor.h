// Direct execution of a protocol over a channel.
//
// This is the paper's execution semantics (Appendix A.1.1) verbatim: in
// round m each party beeps f_m^i(x^i, its transcript so far), the channel
// delivers a (possibly noisy) version of the OR, parties append what they
// received and continue.  Under a correlated channel all parties share one
// transcript; under the independent channel each party feeds its own noisy
// transcript back into its own broadcast functions.
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

  [[nodiscard]] const BitString& shared() const { return transcripts.front(); }
};

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
