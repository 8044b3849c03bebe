#include "coding/repetition_sim.h"

#include "coding/sim_common.h"
#include "fault/injection.h"
#include "util/math.h"
#include "util/require.h"

namespace noisybeeps {

RepetitionSimulator::RepetitionSimulator(RepetitionSimOptions options)
    : options_(options) {
  NB_REQUIRE(options_.rep_factor >= 0, "rep_factor must be non-negative");
  NB_REQUIRE(options_.rep_c >= 1, "rep_c must be positive");
}

int RepetitionSimulator::EffectiveRepFactor(int num_parties) const {
  if (options_.rep_factor > 0) return options_.rep_factor;
  const int log_n = CeilLog2(static_cast<std::uint64_t>(
      num_parties < 2 ? 2 : num_parties));
  return options_.rep_c * log_n + 1;
}

SimulationResult RepetitionSimulator::Simulate(const Protocol& protocol,
                                               const Channel& channel,
                                               const FaultPlan& faults,
                                               Rng& rng) const {
  const int n = protocol.num_parties();
  const int reps = EffectiveRepFactor(n);
  FaultyRoundEngine engine(channel, rng, n, faults);
  engine.SetPhase("repetition");
  internal::DivergenceTracker tracker;

  SimulationResult result;
  result.transcripts.assign(n, BitString());

  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  for (int m = 0; m < protocol.length(); ++m) {
    // Each party fixes its beep for logical round m from its own
    // reconstructed prefix (pure f_m^i), then beeps it `reps` times.
    for (int i = 0; i < n; ++i) {
      SetPackedBit(beeps, i,
                   protocol.party(i).ChooseBeep(result.transcripts[i]));
    }
    const std::vector<std::uint8_t> decoded =
        RepeatRound(engine, beeps, reps, FlagRule::kMajority);
    for (int i = 0; i < n; ++i) {
      result.transcripts[i].PushBack(decoded[i] != 0);
    }
    tracker.Observe(decoded, "repetition", engine.rounds_used());
  }

  result.outputs.reserve(n);
  for (int i = 0; i < n; ++i) {
    result.outputs.push_back(
        protocol.party(i).ComputeOutput(result.transcripts[i]));
  }
  result.noisy_rounds_used = engine.rounds_used();
  result.phase_rounds = engine.phase_rounds();
  result.verdict = ComputeVerdict(result.transcripts, protocol.length(),
                                  /*budget_exhausted=*/false);
  tracker.Export(result.verdict);
  return result;
}

std::string RepetitionSimulator::name() const {
  return options_.rep_factor > 0
             ? "repetition(r=" + std::to_string(options_.rep_factor) + ")"
             : "repetition(r=" + std::to_string(options_.rep_c) + "log n+1)";
}

}  // namespace noisybeeps
