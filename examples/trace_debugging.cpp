// Deterministic replay: the debugging workflow for noisy executions.
//
// A simulation run over a stochastic channel is hard to debug -- the
// interesting failure evaporates when you re-run.  noisybeeps solves this
// with channel decorators: RecordingChannel captures every delivered bit;
// ReplayChannel plays the capture back verbatim, so the same execution
// can be stepped through as many times as needed, across code changes,
// with any RNG.
//
// This demo simulates InputSet over a noisy channel while recording,
// prints the noise statistics of the captured trace, then replays it
// twice and checks all three executions agree bit for bit.
//
// Usage: trace_debugging [n] [epsilon] [seed]
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "channel/correlated.h"
#include "channel/trace.h"
#include "coding/rewind_sim.h"
#include "tasks/input_set.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace noisybeeps;
  const int n = argc > 1 ? std::atoi(argv[1]) : 12;
  const double eps = argc > 2 ? std::atof(argv[2]) : 0.1;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4;

  Rng rng(seed);
  const InputSetInstance instance = SampleInputSet(n, rng);
  const auto protocol = MakeInputSetProtocol(instance);

  // 1. Record a full rewind-scheme run.
  const CorrelatedNoisyChannel noisy(eps);
  const RecordingChannel recorder(noisy);
  const RewindSimulator sim;
  Rng run_rng(seed + 1);
  const SimulationResult original = sim.Simulate(*protocol, recorder, run_rng);

  const Trace& trace = recorder.trace();
  std::cout << "recorded " << trace.size() << " noisy rounds; noise touched "
            << CountNoisyRounds(trace) << " of them ("
            << 100.0 * static_cast<double>(CountNoisyRounds(trace)) /
                   static_cast<double>(trace.size())
            << "%)\n";
  std::cout << "simulation "
            << (original.AllMatch(ReferenceTranscript(*protocol))
                    ? "succeeded"
                    : "FAILED")
            << " in " << original.noisy_rounds_used << " rounds\n";

  // 2. Replay twice with unrelated RNGs: identical executions.
  const ReplayChannel replay(trace, /*correlated=*/true);
  bool reproducible = true;
  for (int pass = 0; pass < 2; ++pass) {
    replay.Rewind();
    Rng fresh(977 + pass);
    const SimulationResult replayed = sim.Simulate(*protocol, replay, fresh);
    reproducible = reproducible &&
                   replayed.transcripts == original.transcripts &&
                   replayed.noisy_rounds_used == original.noisy_rounds_used;
  }
  std::cout << "replay x2: "
            << (reproducible ? "bit-identical" : "DIVERGED") << "\n";

  // 3. The first few trace rows, as they would land in a CSV artifact.
  std::ostringstream csv;
  WriteTraceCsv(Trace(trace.begin(), trace.begin() + 5), csv);
  std::cout << "\nfirst rows of the trace artifact:\n" << csv.str();

  return reproducible ? 0 : 1;
}
