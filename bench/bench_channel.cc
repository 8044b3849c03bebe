// E7 -- substrate scaling: the cost of one beeping round, per channel
// model, as the party count grows.  This is the simulator's innermost
// loop; everything else in the library multiplies it.
//
// The end-to-end execution sweep runs through bench_harness.h's resilient
// engine and surfaces its run report; the single-round loops stay plain.
#include <benchmark/benchmark.h>

#include "bench_harness.h"
#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/noiseless.h"
#include "channel/one_sided.h"
#include "channel/shared_randomness.h"
#include "protocol/executor.h"
#include "protocol/round_engine.h"
#include "tasks/input_set.h"
#include "util/rng.h"

namespace {

using namespace noisybeeps;

// One round per iteration through RoundEngine::RoundWords, 64 parties per
// u64, one beeper.  Stream-compat is the mode every simulator runs; fast
// mode batches the independent channel's sampling and is the mega-n
// configuration -- its Args extend to 2^20 parties.
template <typename ChannelT>
void RoundLoop(benchmark::State& state, const ChannelT& channel,
               WordMode mode = WordMode::kStreamCompat) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  RoundEngine engine(channel, rng, n);
  engine.SetWordMode(mode);
  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  SetPackedBit(beeps, n / 2, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.RoundWords(beeps));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_RoundNoiseless(benchmark::State& state) {
  RoundLoop(state, NoiselessChannel());
}
BENCHMARK(BM_RoundNoiseless)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void BM_RoundCorrelated(benchmark::State& state) {
  RoundLoop(state, CorrelatedNoisyChannel(0.1));
}
BENCHMARK(BM_RoundCorrelated)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void BM_RoundOneSidedUp(benchmark::State& state) {
  RoundLoop(state, OneSidedUpChannel(1.0 / 3.0));
}
BENCHMARK(BM_RoundOneSidedUp)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void BM_RoundIndependent(benchmark::State& state) {
  RoundLoop(state, IndependentNoisyChannel(0.1));
}
BENCHMARK(BM_RoundIndependent)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Arg(65536);

void BM_RoundSharedRandomness(benchmark::State& state) {
  RoundLoop(state, SharedRandomnessOneSidedAdapter::PaperInstance());
}
BENCHMARK(BM_RoundSharedRandomness)->Arg(8)->Arg(64)->Arg(512);

void BM_RoundWordsIndependentFast(benchmark::State& state) {
  RoundLoop(state, IndependentNoisyChannel(0.1), WordMode::kFast);
}
BENCHMARK(BM_RoundWordsIndependentFast)
    ->Arg(512)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(262144)
    ->Arg(1048576);

void BM_RoundWordsIndependentFastSparse(benchmark::State& state) {
  // eps * 64 < 1: the geometric skip walk, the regime where round cost is
  // dominated by the O(eps * n) flips rather than the O(n / 64) words.
  RoundLoop(state, IndependentNoisyChannel(0.001), WordMode::kFast);
}
BENCHMARK(BM_RoundWordsIndependentFastSparse)
    ->Arg(65536)
    ->Arg(262144)
    ->Arg(1048576);

void BM_RoundWordsCorrelatedFast(benchmark::State& state) {
  // Shared-draw word delivery: one draw then a word fill, so cost is pure
  // memory bandwidth at any n.
  RoundLoop(state, CorrelatedNoisyChannel(0.1), WordMode::kFast);
}
BENCHMARK(BM_RoundWordsCorrelatedFast)->Arg(4096)->Arg(1048576);

// Full protocol execution end to end (round loop + party beep functions +
// transcript bookkeeping): rounds/second for the trivial InputSet run,
// with each trial sampling a fresh instance through the resilient engine.
void BM_ExecuteInputSet(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kTrials = 32;
  const CorrelatedNoisyChannel channel(0.1);
  bench::BenchRun run;
  for (auto _ : state) {
    run = bench::RunTrials(kTrials, 2, [&](int, Rng& rng) {
      const InputSetInstance instance = SampleInputSet(n, rng);
      const auto protocol = MakeInputSetProtocol(instance);
      const ExecutionResult result = Execute(*protocol, channel, rng);
      bench::BenchPoint point;
      point.success = InputSetAllCorrect(instance, result.outputs);
      point.rounds = protocol->length();
      return point;
    });
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(run.rounds.mean() * kTrials));
  state.counters["success_rate"] = run.successes.rate();
  bench::SurfaceReport(state, run.report);
}
BENCHMARK(BM_ExecuteInputSet)->Arg(8)->Arg(64)->Arg(256)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
