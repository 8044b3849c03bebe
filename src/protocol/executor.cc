#include "protocol/executor.h"

#include <cstdint>
#include <optional>
#include <span>

#include "util/require.h"

namespace noisybeeps {

ExecutionResult Execute(const Protocol& protocol, RoundEngine& engine,
                        int reps) {
  NB_REQUIRE(engine.num_parties() == protocol.num_parties(),
             "round engine sized for a different party count");
  const int n = protocol.num_parties();
  const int length = protocol.length();
  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  std::span<const std::uint64_t> received;

  // Shared phase: every party holds `shared`, so one BeepWords call is
  // the whole round's beeps.
  BitString shared;
  shared.Reserve(static_cast<std::size_t>(length));
  int m = 0;
  for (; m < length; ++m) {
    protocol.BeepWords(shared, beeps);
    received = engine.RepeatRound(beeps, reps, FlagRule::kMajority);
    const std::optional<bool> bit = SharedBit(received, n);
    if (!bit.has_value()) break;
    shared.PushBack(*bit);
  }

  ExecutionResult result;
  result.transcripts.assign(n, shared);
  if (m < length) {
    // Round m delivered different bits: from here each party appends its
    // own bit and decides from its own transcript.
    result.first_divergent_round = m;
    for (BitString& transcript : result.transcripts) {
      transcript.Reserve(static_cast<std::size_t>(length));
    }
    for (;;) {
      for (int i = 0; i < n; ++i) {
        result.transcripts[i].PushBack(PackedBit(received, i));
      }
      if (++m == length) break;
      for (int i = 0; i < n; ++i) {
        SetPackedBit(beeps, i,
                     protocol.party(i).ChooseBeep(result.transcripts[i]));
      }
      received = engine.RepeatRound(beeps, reps, FlagRule::kMajority);
    }
  }

  result.outputs.reserve(n);
  for (int i = 0; i < n; ++i) {
    result.outputs.push_back(
        protocol.party(i).ComputeOutput(result.transcripts[i]));
  }
  return result;
}

ExecutionResult Execute(const Protocol& protocol, const Channel& channel,
                        Rng& rng) {
  RoundEngine engine(channel, rng, protocol.num_parties());
  return Execute(protocol, engine);
}

}  // namespace noisybeeps
