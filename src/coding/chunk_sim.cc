#include "coding/chunk_sim.h"

#include "coding/owner_finding.h"
#include "util/require.h"

namespace noisybeeps {

ChunkAttempt SimulateChunkInPlace(const Protocol& protocol,
                                  std::vector<BitString>& transcripts,
                                  int start, int chunk_len, int rep_factor,
                                  const BeepCode* code, RoundEngine& engine) {
  const int n = protocol.num_parties();
  NB_REQUIRE(static_cast<int>(transcripts.size()) == n,
             "need one committed prefix per party");
  NB_REQUIRE(start >= 0 && chunk_len >= 1 &&
                 start + chunk_len <= protocol.length(),
             "chunk out of protocol range");
  NB_REQUIRE(rep_factor >= 1, "repetition factor must be positive");
  for (const BitString& prefix : transcripts) {
    NB_REQUIRE(static_cast<int>(prefix.size()) == start,
               "committed prefixes must cover exactly the rounds before the "
               "chunk");
  }
  if (code != nullptr) {
    NB_REQUIRE(code->chunk_len() == chunk_len,
               "owner code sized for a different chunk length");
  }

  ChunkAttempt attempt;
  attempt.candidate.assign(n, BitString());
  attempt.beeped.assign(n, BitString());

  // Phase 1: simulation by repetition.  transcripts[i] = the committed
  // prefix extended by the candidate bits decoded so far; the party's pure
  // f_m^i reads it.
  engine.SetPhase("chunk-sim");
  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  for (int m = 0; m < chunk_len; ++m) {
    for (int i = 0; i < n; ++i) {
      const bool b = protocol.party(i).ChooseBeep(transcripts[i]);
      SetPackedBit(beeps, i, b);
      attempt.beeped[i].PushBack(b);
    }
    const std::span<const std::uint64_t> decoded =
        engine.RepeatRound(beeps, rep_factor, FlagRule::kMajority);
    for (int i = 0; i < n; ++i) {
      const bool bit = PackedBit(decoded, i);
      attempt.candidate[i].PushBack(bit);
      transcripts[i].PushBack(bit);
    }
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
