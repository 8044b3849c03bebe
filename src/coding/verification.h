// The verification phase of the rewind-if-error schemes (Sections 2.1 and
// D.2): deciding whether a simulated transcript (prefix) is consistent
// with what the parties actually beeped, and communicating the verdict
// over the noisy channel as an OR of error flags.
//
// Who checks what (the paper's key idea):
//   - pi_m = 0: every party checks that it beeped 0 in round m.  A party
//     that beeped 1 knows the 0 is wrong and flags.
//   - pi_m = 1 with a recorded owner: the OWNER checks that it indeed
//     beeped 1 (given the candidate prefix).  If the owner would not have
//     beeped 1, the 1 is unsubstantiated and the owner flags.
//   - pi_m = 1 with no recorded owner: flagged by every party (Section
//     2.1: "an error flag for rounds with no owner can be raised by any
//     player").
// Under one-sided 1->0 noise owners are unnecessary (a received 1 is
// always genuine), which is regime kDownOnly -- the source of the paper's
// constant-overhead claim for that direction.
//
// A cleared verification certifies exact correctness: if no party flags,
// then every 0 had all-silent beeps and every 1 had its owner beeping, so
// the candidate equals the noiseless transcript continuation round for
// round.
//
// A flag exchange is one RoundEngine::RepeatRound of the parties' flags;
// the repetition code and its FlagRule live with the engine
// (protocol/round_engine.h).
#ifndef NOISYBEEPS_CODING_VERIFICATION_H_
#define NOISYBEEPS_CODING_VERIFICATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "protocol/protocol.h"
#include "protocol/round_engine.h"

namespace noisybeeps {

enum class NoiseRegime {
  kTwoSided,  // 0->1 flips possible: verification needs owners
  kDownOnly,  // only 1->0 flips: received 1s are self-certifying
};

// The first round index m at which party `party_index` detects an
// inconsistency per the rules above, or transcript.size() if it detects
// none, from the bits the party recorded beeping: beeped[m] is what it
// beeped in round m given transcript[0, m).  `owners[m]` is the party's
// owner record for round m (-1 = none); required (same size as transcript)
// in regime kTwoSided, ignored in kDownOnly.  Under kDownOnly the answer
// is the first set bit of beeped & ~transcript; kTwoSided also flags every
// 1 that is unowned or owned by this party without its beep.  Word
// operations only: the beep function is never called.
// Precondition: beeped.size() == transcript.size().
//
// The simulators record `beeped` while they simulate a chunk, on exactly
// the prefix FirstViolation below would replay, so party purity makes the
// two agree round for round.
[[nodiscard]] std::size_t FirstViolationFromBeeps(int party_index,
                                                  const BitString& beeped,
                                                  const BitString& transcript,
                                                  std::span<const int> owners,
                                                  NoiseRegime regime);

// The replay reference for FirstViolationFromBeeps: the same rule, with
// each beep recomputed by the party's pure beep function along the
// transcript.  Only rounds m in [from, transcript.size()) are checked;
// rounds before `from` are replayed (they set the context for f_m^i) but
// not checked.  No simulator calls it: the differential tests check the
// recorded-beep rule against it.
[[nodiscard]] std::size_t FirstViolation(const Protocol& protocol,
                                         int party_index,
                                         const BitString& transcript,
                                         const std::vector<int>& owners,
                                         NoiseRegime regime,
                                         std::size_t from = 0);

// One flag exchange: parties with flag != 0 beep in each of `reps` rounds;
// returns each party's decoded verdict under `rule`, packed as
// RoundEngine::RepeatRound returns it (tail bits zero; read party i's with
// PackedBit).
// Precondition: flags.size() == engine.num_parties(), reps >= 1.
[[nodiscard]] std::vector<std::uint64_t> CommunicateFlags(
    RoundEngine& engine, const std::vector<std::uint8_t>& flags, int reps,
    FlagRule rule);

// Binary search for the longest verified prefix (the progress check of
// Section D.2).  first_violation[i] is party i's local first-bad-round
// index (from FirstViolationFromBeeps) over a transcript of length
// `total_len`.
// Runs ceil(log2(total_len + 1)) flag exchanges of `reps` rounds each; all
// parties follow the same probe schedule, so under a correlated channel
// they return identical results.  Returns each party's view of the
// verified prefix length.
[[nodiscard]] std::vector<std::size_t> BinarySearchVerifiedPrefix(
    RoundEngine& engine, const std::vector<std::size_t>& first_violation,
    std::size_t total_len, int reps, FlagRule rule);

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CODING_VERIFICATION_H_
