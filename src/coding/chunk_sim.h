// Algorithm 1: simulating one chunk of a noiseless protocol over the noisy
// channel (Section D.1).
//
// Phase 1 (simulation): each of the chunk's rounds is repeated rep_factor
// times; parties majority-decode each round and feed the decoded bit back
// into their broadcast functions, extending their local candidate
// transcript.  This is Execute's loop (protocol/executor.h,
// ExtendTranscripts) run from the committed prefixes: one transcript and
// one Protocol::BeepWords call per round while the parties agree, a
// ChooseBeep per party per round once they do not.
//
// Phase 2 (finding owners, optional): the Algorithm 1 turn-passing
// protocol records an owner for every 1 of the candidate chunk -- see
// coding/owner_finding.h.
//
// The result: a candidate transcript extension and an owner map, each
// held once while the parties agree, and the bits each party beeped.
// Whether the candidate is CORRECT is decided afterwards by verification
// (coding/verification.h); the rewind schemes stitch these pieces together.
#ifndef NOISYBEEPS_CODING_CHUNK_SIM_H_
#define NOISYBEEPS_CODING_CHUNK_SIM_H_

#include <vector>

#include "coding/beep_code.h"
#include "protocol/protocol.h"
#include "protocol/round_engine.h"
#include "util/per_party.h"

namespace noisybeeps {

struct ChunkAttempt {
  // candidate[i]: the chunk bits party i decoded (its transcript extension).
  PerParty<BitString> candidate;
  // beeped[i]: the bits party i itself beeped during the chunk.
  std::vector<BitString> beeped;
  // owners[i][m]: party i's owner record for chunk round m (-1 = none);
  // empty when the owner phase was skipped.
  PerParty<std::vector<int>> owners;
};

// Simulates rounds [start, start + chunk_len) of `protocol`, extending
// every party's transcript in place.  `transcripts[i]` enters as party i's
// committed prefix (its view of the first `start` simulated rounds; all
// must have length == start) and leaves extended by the chunk bits party i
// decoded, the same bits as the attempt's candidate[i].  rep_factor >= 1.
// When `code` is non-null the owner phase runs with that code
// (code->chunk_len() must equal chunk_len).
[[nodiscard]] ChunkAttempt SimulateChunkInPlace(
    const Protocol& protocol, PerParty<BitString>& transcripts, int start,
    int chunk_len, int rep_factor, const BeepCode* code, RoundEngine& engine);

// SimulateChunkInPlace on a copy of `committed`.
[[nodiscard]] ChunkAttempt SimulateChunk(const Protocol& protocol,
                                         PerParty<BitString> committed,
                                         int start, int chunk_len,
                                         int rep_factor, const BeepCode* code,
                                         RoundEngine& engine);

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CODING_CHUNK_SIM_H_
