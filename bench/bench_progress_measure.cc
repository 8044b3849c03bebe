// E5 -- the Theorem C.2 / C.3 tension, measured on real executions.
//
// For r-repetition InputSet protocols over the one-sided-up 1/3 channel:
//   * C.2: whenever the good-players event holds, zeta(x,pi) stays below
//     the ceiling (4/n) * 3^{4T/n}.  We report the measured max and the
//     ceiling; ratio <= 1 is the theorem.
//   * C.3's shape: E[zeta | G] tracks correctness.  Short protocols
//     (small r) have low conditional zeta AND low success; growing T
//     raises both -- the tension resolves only once T = Omega(n log n).
//
// Trials run through bench_harness.h's resilient engine; each trial's
// BenchPoint carries (zeta, event_good) and the conditional statistics
// are folded from the returned points.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "analysis/progress_measure.h"
#include "bench_harness.h"
#include "channel/one_sided.h"
#include "protocol/executor.h"
#include "tasks/input_set.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace noisybeeps;
using bench::BenchPoint;
using bench::BenchRun;

constexpr double kEps = 1.0 / 3.0;

BenchRun ZetaRun(int n, int r, int trials, std::uint64_t seed) {
  const OneSidedUpChannel channel(kEps);
  const auto family = MakeInputSetFamily(n, r);
  return bench::RunTrials(trials, seed, [&](int, Rng& rng) {
    const InputSetInstance instance = SampleInputSet(n, rng);
    const auto protocol =
        MakeRepeatedInputSetProtocol(instance, r, RoundDecision::kAllOnes);
    const ExecutionResult run = Execute(*protocol, channel, rng);
    const ZetaResult zeta =
        ComputeZeta(*family, instance.inputs, run.shared(), kEps);
    BenchPoint point;
    point.success = InputSetAllCorrect(instance, run.outputs);
    point.rounds = protocol->length();
    point.value = zeta.zeta;
    point.extra = zeta.event_good ? 1.0 : 0.0;
    return point;
  });
}

void BM_ZetaVsTheoremC2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  const int T = 2 * n * r;
  BenchRun run;
  for (auto _ : state) {
    run = ZetaRun(n, r, 30, 13000 + 71 * n + r);
  }
  double max_zeta = 0;
  RunningStat zeta_given_good;
  int good_events = 0;
  for (const BenchPoint& point : run.points) {
    if (point.extra == 0) continue;
    ++good_events;
    max_zeta = std::max(max_zeta, point.value);
    zeta_given_good.Add(point.value);
  }
  const double bound = TheoremC2Bound(n, T, kEps);
  state.counters["T"] = T;
  state.counters["max_zeta"] = max_zeta;
  state.counters["c2_ceiling"] = bound;
  state.counters["max_over_ceiling"] = bound > 0 ? max_zeta / bound : 0;
  state.counters["mean_zeta_given_G"] = zeta_given_good.mean();
  state.counters["success_rate"] = run.successes.rate();
  state.counters["good_event_rate"] =
      static_cast<double>(good_events) /
      static_cast<double>(run.successes.trials());
  bench::SurfaceReport(state, run.report);
}
BENCHMARK(BM_ZetaVsTheoremC2)
    ->ArgsProduct({{8, 16}, {1, 2, 4, 8}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// The C.3 floor: for instances where the protocol is correct, the
// conditional measure should sit above n^{-3/4} once success is high.
void BM_ZetaFloorForCorrectProtocols(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int r = 16;  // heavy repetition: protocol essentially always right
  BenchRun run;
  for (auto _ : state) {
    run = ZetaRun(n, r, 20, 14000 + n);
  }
  RunningStat zeta_given_good;
  for (const BenchPoint& point : run.points) {
    if (point.extra != 0) zeta_given_good.Add(point.value);
  }
  state.counters["success_rate"] = run.successes.rate();
  state.counters["mean_zeta_given_G"] = zeta_given_good.mean();
  state.counters["c3_floor"] = std::pow(n, -0.75);
  state.counters["floor_satisfied"] =
      zeta_given_good.mean() >= std::pow(n, -0.75) ? 1.0 : 0.0;
  bench::SurfaceReport(state, run.report);
}
BENCHMARK(BM_ZetaFloorForCorrectProtocols)
    ->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
