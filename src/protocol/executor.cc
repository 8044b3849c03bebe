#include "protocol/executor.h"

#include "util/require.h"

namespace noisybeeps {

ExecutionResult Execute(const Protocol& protocol, RoundEngine& engine) {
  const int n = protocol.num_parties();
  NB_REQUIRE(engine.num_parties() == n,
             "round engine sized for a different party count");
  ExecutionResult result;
  result.transcripts.assign(n, BitString());
  for (BitString& transcript : result.transcripts) {
    transcript.Reserve(static_cast<std::size_t>(protocol.length()));
  }

  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  for (int m = 0; m < protocol.length(); ++m) {
    for (int i = 0; i < n; ++i) {
      // Each party decides from ITS OWN transcript; under correlated
      // channels all transcripts coincide, so this is equivalent to the
      // shared-transcript formulation.
      SetPackedBit(beeps, i,
                   protocol.party(i).ChooseBeep(result.transcripts[i]));
    }
    const std::span<const std::uint64_t> received = engine.RoundWords(beeps);
    for (int i = 0; i < n; ++i) {
      result.transcripts[i].PushBack(PackedBit(received, i));
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
