// E2 -- Theorem 1.1 / C.1: InputSet_n over the one-sided-up 1/3-noisy
// channel needs Omega(n log n) rounds.
//
// Two views of the same phenomenon:
//  * BM_RepetitionSuccess: the success rate of the natural r-repetition
//    protocol (ML all-ones decision) as a function of r, per n -- the
//    curves shift right as n grows.
//  * BM_MinimalRepetition: the minimal r* reaching 90% success, per n,
//    plus r* normalized by log2(n); the normalized column flattening to a
//    constant is the Omega(log n)-overhead shape the theorem predicts.
//
// Trials run through bench_harness.h's resilient engine; the r* searches
// merge every probed cell's BenchRun so the surfaced resilience report
// covers the WHOLE search, not just the final r.
#include <benchmark/benchmark.h>

#include "bench_harness.h"
#include "channel/one_sided.h"
#include "protocol/executor.h"
#include "tasks/input_set.h"
#include "util/math.h"
#include "util/rng.h"

namespace {

using namespace noisybeeps;
using bench::BenchPoint;
using bench::BenchRun;

constexpr double kEps = 1.0 / 3.0;

BenchRun RepetitionRun(int n, int r, int trials, std::uint64_t seed) {
  const OneSidedUpChannel channel(kEps);
  return bench::RunTrials(trials, seed, [&](int, Rng& rng) {
    const InputSetInstance instance = SampleInputSet(n, rng);
    const auto protocol =
        MakeRepeatedInputSetProtocol(instance, r, RoundDecision::kAllOnes);
    const ExecutionResult result = Execute(*protocol, channel, rng);
    BenchPoint point;
    point.success = InputSetAllCorrect(instance, result.outputs);
    point.rounds = protocol->length();
    return point;
  });
}

void BM_RepetitionSuccess(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  BenchRun run;
  for (auto _ : state) {
    run = RepetitionRun(n, r, 80, 4000 + 131 * n + r);
  }
  state.counters["success_rate"] = run.successes.rate();
  state.counters["total_rounds"] = 2.0 * n * r;
  bench::SurfaceReport(state, run.report);
}
BENCHMARK(BM_RepetitionSuccess)
    ->ArgsProduct({{8, 32, 128}, {2, 4, 8, 12, 16, 24}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MinimalRepetition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  int r_star = -1;
  BenchRun search;
  for (auto _ : state) {
    for (int r = 1; r <= 128; ++r) {
      BenchRun cell = RepetitionRun(n, r, 60, 5000 + 131 * n + r);
      const double rate = cell.successes.rate();
      search.Merge(cell);
      if (rate >= 0.9) {
        r_star = r;
        break;
      }
    }
  }
  const double log_n = CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n));
  state.counters["r_star"] = r_star;
  state.counters["r_star_per_log_n"] = r_star / (log_n > 0 ? log_n : 1);
  state.counters["rounds_n_log_n"] =
      (2.0 * n * r_star) / (n * (log_n > 0 ? log_n : 1));
  bench::SurfaceReport(state, search.report);
}
BENCHMARK(BM_MinimalRepetition)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// Control experiment: the SAME repetition sweep under one-sided-down
// noise with the ML "any repetition reads 1" rule.  Feedback-free
// repetition still needs r ~ log(n)/log(1/eps) here (a union bound over
// elements), but the constant is visibly smaller than in the up-noise
// sweep; the paper's CONSTANT overhead for down noise needs the
// detect-and-retry mechanism, which bench_asymmetry measures.
void BM_MinimalRepetitionDownNoise(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const OneSidedDownChannel channel(kEps);
  int r_star = -1;
  BenchRun search;
  for (auto _ : state) {
    for (int r = 1; r <= 128; ++r) {
      BenchRun cell = bench::RunTrials(60, 6000 + 131 * n + r,
                                       [&](int, Rng& rng) {
        const InputSetInstance instance = SampleInputSet(n, rng);
        // Majority is wrong for down noise; "any one" is ML.  The
        // repetition protocol with threshold kMajority under-counts, so
        // emulate the ML rule by decoding the transcript directly.
        const auto protocol = MakeRepeatedInputSetProtocol(instance, r);
        const ExecutionResult run = Execute(*protocol, channel, rng);
        PartyOutput mask((2 * n + 63) / 64, 0);
        for (int e = 0; e < 2 * n; ++e) {
          bool any = false;
          for (int q = 0; q < r; ++q) {
            any = any || run.shared()[static_cast<std::size_t>(e) * r + q];
          }
          if (any) mask[e / 64] |= std::uint64_t{1} << (e % 64);
        }
        BenchPoint point;
        point.success = mask == InputSetExpectedOutput(instance);
        point.rounds = protocol->length();
        return point;
      });
      const double rate = cell.successes.rate();
      search.Merge(cell);
      if (rate >= 0.9) {
        r_star = r;
        break;
      }
    }
  }
  const double log_n = CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n));
  state.counters["r_star"] = r_star;
  state.counters["r_star_per_log_n"] = r_star / (log_n > 0 ? log_n : 1);
  bench::SurfaceReport(state, search.report);
}
BENCHMARK(BM_MinimalRepetitionDownNoise)
    ->Arg(4)->Arg(16)->Arg(64)->Arg(128)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
