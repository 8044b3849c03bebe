// The "finding owners" phase of Algorithm 1 (Section D.1, Theorem D.1).
//
// Input: each party i knows the bits b^i_m it beeped during a simulated
// chunk and shares (its view of) the chunk transcript pi.  The parties
// must agree, for every round m with pi_m = 1, on an OWNER: a party that
// actually beeped 1 in round m.  Owners are what later lets the
// verification phase check the 1s of the transcript (the owner of a 1 is
// responsible for confirming it), closing the gap that makes 0->1 noise
// hard (Section 2.1).
//
// Protocol (verbatim from Algorithm 1): turn-passing over
// chunk_len + num_parties iterations.  The party whose turn it is beeps
// the codeword C(j) for the smallest not-yet-claimed round j it can own
// (b^i_j = 1 and its view has pi_j = 1), or C(Next) to pass the turn.
// Everyone decodes each codeword from the noisy bits; on Next the turn
// advances, on j the decoded round is recorded as owned by the current
// turn-holder.  Under a correlated channel all parties decode identical
// words, so their turn counters and owner maps never diverge; Theorem D.1
// bounds the failure probability by n^-10 for suitable code length.
//
// So when the engine shares rounds (RoundEngine::shares_rounds), one state
// stands for every party: the turn-holder alone speaks, from its own view
// and beeps, its codeword is one RoundEngine::SharedWordRounds call, and
// one decode serves all n parties.  It runs the same rounds and draws, and
// returns the same owners, as the per-party path would on that engine.
// Any other engine runs the per-party path: each party keeps its own state
// and decodes the bits it received.
//
// Every decode is exact ML, but starts from a hint: the message the (first)
// speaker sent.  When the received word lies within half the code's
// minimum distance of the hint's codeword, that codeword is certified as
// the unique nearest and the scan over the book is skipped
// (CodebookCode::DecodeWords with a hint).
#ifndef NOISYBEEPS_CODING_OWNER_FINDING_H_
#define NOISYBEEPS_CODING_OWNER_FINDING_H_

#include <cstdint>
#include <vector>

#include "coding/beep_code.h"
#include "protocol/round_engine.h"

namespace noisybeeps {

struct OwnerFindingResult {
  // owners[i][m]: party i's record of the owner of chunk round m
  // (-1 = no owner recorded).
  std::vector<std::vector<int>> owners;
  // Decodes that the hint did not certify, so that scanned the whole book:
  // a count of work, not part of the outcome.
  std::int64_t full_scans = 0;
};

// Preconditions: pi_view and beeped have one entry per party, all of the
// same length == code.chunk_len().
[[nodiscard]] OwnerFindingResult FindOwners(
    RoundEngine& engine, const BeepCode& code,
    const std::vector<BitString>& pi_view,
    const std::vector<BitString>& beeped);

// Checks Theorem D.1's postcondition against ground truth: every round m
// of `true_pi` with value 1 has, at every party, a recorded owner o with
// true_beeped[o][m] == 1, and all parties agree on it.  Returns false on
// any violation.  (Used by tests and benches; not part of the protocol.)
[[nodiscard]] bool OwnersValid(const OwnerFindingResult& result,
                               const BitString& true_pi,
                               const std::vector<BitString>& true_beeped);

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CODING_OWNER_FINDING_H_
