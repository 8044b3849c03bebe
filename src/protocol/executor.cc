#include "protocol/executor.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "util/require.h"

namespace noisybeeps {

int ExtendTranscripts(const Protocol& protocol, RoundEngine& engine, int reps,
                      int rounds, std::vector<BitString>& transcripts,
                      std::vector<BitString>* beeped) {
  const int n = protocol.num_parties();
  NB_REQUIRE(engine.num_parties() == n &&
                 static_cast<int>(transcripts.size()) == n &&
                 (beeped == nullptr || static_cast<int>(beeped->size()) == n),
             "round engine or transcripts sized for a different party count");
  NB_REQUIRE(reps >= 1 && rounds >= 0,
             "need positive repetitions and non-negative rounds");
  BitString& first = transcripts.front();
  NB_REQUIRE(first.size() + static_cast<std::size_t>(rounds) <=
                 static_cast<std::size_t>(protocol.length()),
             "rounds run past the protocol's length");
  bool shared = true;
  for (const BitString& transcript : transcripts) {
    NB_REQUIRE(transcript.size() == first.size(),
               "transcripts must all have the same length");
    shared = shared && transcript == first;
  }

  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  std::span<const std::uint64_t> received;
  const auto record = [&] {
    if (beeped == nullptr) return;
    for (int i = 0; i < n; ++i) (*beeped)[i].PushBack(PackedBit(beeps, i));
  };
  int m = 0;
  int divergent_round = -1;
  if (shared) {
    // Shared phase: every party holds `first`, so one BeepWords call is
    // the whole round's beeps.
    for (; m < rounds; ++m) {
      protocol.BeepWords(first, beeps);
      record();
      received = engine.RepeatRound(beeps, reps, FlagRule::kMajority);
      const std::optional<bool> bit = SharedBit(received, n);
      if (!bit.has_value()) break;
      first.PushBack(*bit);
    }
    // The other parties catch up by a whole-vector copy: appending the new
    // tail to each (a bit-by-bit Substring, then a zero-fill-and-OR
    // Append) costs more.
    std::fill(transcripts.begin() + 1, transcripts.end(), first);
    if (m == rounds) return -1;
    // Round m delivered different bits: from here each party appends its
    // own bit and decides from its own transcript.
    divergent_round = static_cast<int>(first.size());
    for (int i = 0; i < n; ++i) {
      transcripts[i].PushBack(PackedBit(received, i));
    }
    ++m;
  }

  for (; m < rounds; ++m) {
    for (int i = 0; i < n; ++i) {
      SetPackedBit(beeps, i, protocol.party(i).ChooseBeep(transcripts[i]));
    }
    record();
    received = engine.RepeatRound(beeps, reps, FlagRule::kMajority);
    for (int i = 0; i < n; ++i) {
      transcripts[i].PushBack(PackedBit(received, i));
    }
  }
  return divergent_round;
}

ExecutionResult Execute(const Protocol& protocol, RoundEngine& engine,
                        int reps) {
  const int n = protocol.num_parties();
  ExecutionResult result;
  result.transcripts.resize(static_cast<std::size_t>(n));
  result.first_divergent_round = ExtendTranscripts(
      protocol, engine, reps, protocol.length(), result.transcripts);

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
