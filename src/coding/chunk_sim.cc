#include "coding/chunk_sim.h"

#include "coding/owner_finding.h"
#include "protocol/executor.h"
#include "util/require.h"

namespace noisybeeps {

ChunkAttempt SimulateChunkInPlace(const Protocol& protocol,
                                  std::vector<BitString>& transcripts,
                                  int start, int chunk_len, int rep_factor,
                                  const BeepCode* code, RoundEngine& engine) {
  NB_REQUIRE(start >= 0 && chunk_len >= 1 &&
                 start + chunk_len <= protocol.length(),
             "chunk out of protocol range");
  for (const BitString& prefix : transcripts) {
    NB_REQUIRE(static_cast<int>(prefix.size()) == start,
               "committed prefixes must cover exactly the rounds before the "
               "chunk");
  }
  if (code != nullptr) {
    NB_REQUIRE(code->chunk_len() == chunk_len,
               "owner code sized for a different chunk length");
  }

  // Phase 1: simulation by repetition, on Execute's loop from the
  // committed prefixes; each party's candidate is its transcript's new
  // tail.
  ChunkAttempt attempt;
  attempt.beeped.assign(transcripts.size(), BitString());
  engine.SetPhase("chunk-sim");
  (void)ExtendTranscripts(protocol, engine, rep_factor, chunk_len,
                          transcripts, &attempt.beeped);
  attempt.candidate.reserve(transcripts.size());
  for (const BitString& transcript : transcripts) {
    attempt.candidate.push_back(transcript.Substring(
        static_cast<std::size_t>(start), transcript.size()));
  }

  // Phase 2: finding owners.
  if (code != nullptr) {
    OwnerFindingResult found =
        FindOwners(engine, *code, attempt.candidate, attempt.beeped);
    attempt.owners = std::move(found.owners);
  }
  return attempt;
}

ChunkAttempt SimulateChunk(const Protocol& protocol,
                           const std::vector<BitString>& committed, int start,
                           int chunk_len, int rep_factor, const BeepCode* code,
                           RoundEngine& engine) {
  std::vector<BitString> working = committed;
  return SimulateChunkInPlace(protocol, working, start, chunk_len, rep_factor,
                              code, engine);
}

}  // namespace noisybeeps
