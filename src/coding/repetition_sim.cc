#include "coding/repetition_sim.h"

#include "fault/injection.h"
#include "protocol/executor.h"
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

  // Execute's loop, with each protocol round's beeps sent `reps` times
  // and majority-decoded: every party fixes its beep for logical round m
  // from its own reconstructed prefix (pure f_m^i).
  ExecutionResult run = Execute(protocol, engine, reps);

  SimulationResult result;
  result.transcripts = std::move(run.transcripts);
  result.outputs = std::move(run.outputs);
  result.noisy_rounds_used = engine.rounds_used();
  result.phase_rounds = engine.phase_rounds();
  result.verdict = ComputeVerdict(result.transcripts, protocol.length(),
                                  /*budget_exhausted=*/false);
  if (run.first_divergent_round >= 0) {
    // Observed once the divergent round's repetitions were decoded.
    result.verdict.first_divergent_phase = "repetition";
    result.verdict.first_divergence_round =
        static_cast<std::int64_t>(run.first_divergent_round + 1) * reps;
  }
  return result;
}

std::string RepetitionSimulator::name() const {
  return options_.rep_factor > 0
             ? "repetition(r=" + std::to_string(options_.rep_factor) + ")"
             : "repetition(r=" + std::to_string(options_.rep_c) + "log n+1)";
}

}  // namespace noisybeeps
