// The paper's headline tension, measured.
//
// For the InputSet_n task over the one-sided-up 1/3-noisy channel (the
// exact lower-bound setting of Theorem C.1), this survey finds -- per n --
// the minimal repetition factor r* at which the natural r-repetition
// protocol reaches 90% success.  The lower bound says r* must grow like
// log n; the upper bound says the paper's scheme matches that growth.  The
// table prints r*, the implied total rounds r* * 2n, the rewind scheme's
// measured rounds, and both normalized by n*log2(n).
//
// Usage: input_set_survey [trials] [seed]
#include <cstdio>
#include <cstdlib>

#include "channel/one_sided.h"
#include "coding/rewind_sim.h"
#include "protocol/executor.h"
#include "tasks/input_set.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace noisybeeps;

double RepetitionSuccessRate(int n, int r, int trials, Rng& rng) {
  const OneSidedUpChannel channel(1.0 / 3.0);
  SuccessCounter counter;
  for (int t = 0; t < trials; ++t) {
    const InputSetInstance instance = SampleInputSet(n, rng);
    // kAllOnes is the ML decision under one-sided-up noise.
    const auto protocol =
        MakeRepeatedInputSetProtocol(instance, r, RoundDecision::kAllOnes);
    const ExecutionResult result = Execute(*protocol, channel, rng);
    counter.Record(InputSetAllCorrect(instance, result.outputs));
  }
  return counter.rate();
}

int MinimalRepetition(int n, int trials, Rng& rng) {
  for (int r = 1; r <= 128; ++r) {
    if (RepetitionSuccessRate(n, r, trials, rng) >= 0.9) return r;
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = argc > 1 ? std::atoi(argv[1]) : 60;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;
  Rng rng(seed);

  std::printf(
      "InputSet_n over the one-sided-up eps=1/3 channel (%d trials/cell)\n\n",
      trials);
  std::printf("%6s %6s | %10s %12s | %12s | %14s %14s\n", "n", "log2n", "r*",
              "rep rounds", "rewind rounds", "rep/(n log n)",
              "rwd/(n log n)");
  for (const int n : {4, 8, 16, 32, 64}) {
    const int r_star = MinimalRepetition(n, trials, rng);
    const long rep_rounds = static_cast<long>(r_star) * 2 * n;

    // The paper's scheme on the same instances.
    const OneSidedUpChannel channel(1.0 / 3.0);
    RewindSimOptions options;
    options.rep_c = 5;
    const RewindSimulator sim(options);
    RunningStat rewind_rounds;
    for (int t = 0; t < 10; ++t) {
      const InputSetInstance instance = SampleInputSet(n, rng);
      const auto protocol = MakeInputSetProtocol(instance);
      const SimulationResult result = sim.Simulate(*protocol, channel, rng);
      rewind_rounds.Add(static_cast<double>(result.noisy_rounds_used));
    }

    const double nlogn = n * static_cast<double>(CeilLog2(n < 2 ? 2 : n));
    std::printf("%6d %6d | %10d %12ld | %12.0f | %14.2f %14.2f\n", n,
                CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n)), r_star,
                rep_rounds, rewind_rounds.mean(),
                nlogn > 0 ? static_cast<double>(rep_rounds) / nlogn : 0.0,
                nlogn > 0 ? rewind_rounds.mean() / nlogn : 0.0);
  }
  std::printf(
      "\nBoth normalized columns flatten to constants: Theta(n log n) rounds\n"
      "are necessary (Theorem 1.1) and sufficient (Theorem 1.2).\n");
  return 0;
}
