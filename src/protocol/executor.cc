#include "protocol/executor.h"

#include <cstdint>
#include <optional>
#include <span>

#include "util/require.h"

namespace noisybeeps {

int ExtendTranscripts(const Protocol& protocol, RoundEngine& engine, int reps,
                      int rounds, PerParty<BitString>& transcripts,
                      std::vector<BitString>* beeped) {
  const int n = protocol.num_parties();
  NB_REQUIRE(engine.num_parties() == n &&
                 static_cast<int>(transcripts.size()) == n &&
                 (beeped == nullptr || static_cast<int>(beeped->size()) == n),
             "round engine or transcripts sized for a different party count");
  NB_REQUIRE(reps >= 1 && rounds >= 0,
             "need positive repetitions and non-negative rounds");
  const std::size_t length = transcripts.front().size();
  NB_REQUIRE(length + static_cast<std::size_t>(rounds) <=
                 static_cast<std::size_t>(protocol.length()),
             "rounds run past the protocol's length");
  for (const BitString& transcript : transcripts.stored()) {
    NB_REQUIRE(transcript.size() == length,
               "transcripts must all have the same length");
  }

  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  int divergent_round = -1;
  for (int m = 0; m < rounds; ++m) {
    // While the transcripts are held once, one BeepWords call is the whole
    // round's beeps; once they split, each party decides from its own.
    std::span<BitString> own = transcripts.stored();
    if (own.size() == 1) {
      protocol.BeepWords(own[0], beeps);
    } else {
      for (int i = 0; i < n; ++i) {
        SetPackedBit(beeps, i, protocol.party(i).ChooseBeep(own[i]));
      }
    }
    if (beeped != nullptr) {
      for (int i = 0; i < n; ++i) (*beeped)[i].PushBack(PackedBit(beeps, i));
    }
    const std::span<const std::uint64_t> received =
        engine.RepeatRound(beeps, reps, FlagRule::kMajority);
    if (own.size() == 1) {
      const std::optional<bool> bit = SharedBit(received, n);
      if (bit.has_value()) {
        own[0].PushBack(*bit);
        continue;
      }
      // The round delivered different bits: the transcripts split.
      divergent_round = static_cast<int>(own[0].size());
      own = transcripts.Split();
    }
    for (int i = 0; i < n; ++i) own[i].PushBack(PackedBit(received, i));
  }
  return divergent_round;
}

ExecutionResult Execute(const Protocol& protocol, RoundEngine& engine,
                        int reps) {
  const int n = protocol.num_parties();
  ExecutionResult result;
  result.transcripts.assign(static_cast<std::size_t>(n), BitString());
  result.first_divergent_round = ExtendTranscripts(
      protocol, engine, reps, protocol.length(), result.transcripts);

  // Read through a const view: a non-const PerParty's operator[] splits.
  const PerParty<BitString>& transcripts = result.transcripts;
  result.outputs.reserve(n);
  for (int i = 0; i < n; ++i) {
    result.outputs.push_back(protocol.party(i).ComputeOutput(transcripts[i]));
  }
  return result;
}

ExecutionResult Execute(const Protocol& protocol, const Channel& channel,
                        Rng& rng) {
  RoundEngine engine(channel, rng, protocol.num_parties());
  return Execute(protocol, engine);
}

}  // namespace noisybeeps
