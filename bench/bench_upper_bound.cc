// E1 -- Theorem 1.2: any noiseless beeping protocol can be simulated over
// the eps-noisy channel with O(log n) blowup and error polynomially small
// in n.
//
// Sweeps n and reports, per workload, the measured blowup
// (noisy rounds / T), the blowup normalized by log2(n) -- which the
// theorem says should flatten to a constant -- and the end-to-end success
// rate.  Workloads: InputSet (the paper's task) and BitExchange (the
// generic non-adaptive protocol where every 1 has a unique owner).
//
// Trials run through bench_harness.h's resilient engine; each cell also
// surfaces the retry/abandonment taxonomy of its run.
#include <benchmark/benchmark.h>

#include "bench_harness.h"
#include "channel/correlated.h"
#include "coding/rewind_sim.h"
#include "tasks/bit_exchange.h"
#include "tasks/input_set.h"
#include "util/math.h"
#include "util/rng.h"

namespace {

using namespace noisybeeps;
using bench::BenchPoint;
using bench::BenchRun;

constexpr double kEps = 0.05;
constexpr int kTrials = 6;

void ReportCell(benchmark::State& state, const BenchRun& run, int n) {
  const double log_n = CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n));
  state.counters["blowup"] = run.value.mean();
  state.counters["blowup_per_log_n"] =
      run.value.mean() / (log_n > 0 ? log_n : 1);
  state.counters["success_rate"] = run.successes.rate();
  bench::SurfaceReport(state, run.report);
}

BenchPoint InputSetPoint(const Simulator& sim, const Channel& channel, int n,
                         Rng& rng) {
  const InputSetInstance instance = SampleInputSet(n, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  BenchPoint point;
  point.success = !result.budget_exhausted() &&
                  InputSetAllCorrect(instance, result.outputs);
  point.status = result.budget_exhausted() ? 2 : 0;
  point.rounds = result.noisy_rounds_used;
  point.value =
      static_cast<double>(result.noisy_rounds_used) / protocol->length();
  return point;
}

void BM_RewindOverhead_InputSet(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const CorrelatedNoisyChannel channel(kEps);
  const RewindSimulator sim;
  BenchRun run;
  for (auto _ : state) {
    run = bench::RunTrials(kTrials, 1000 + n, [&](int, Rng& rng) {
      return InputSetPoint(sim, channel, n, rng);
    });
  }
  ReportCell(state, run, n);
}
BENCHMARK(BM_RewindOverhead_InputSet)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Arg(1024)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_RewindOverhead_BitExchange(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const CorrelatedNoisyChannel channel(kEps);
  const RewindSimulator sim;
  BenchRun run;
  for (auto _ : state) {
    run = bench::RunTrials(kTrials, 2000 + n, [&](int, Rng& rng) {
      const BitExchangeInstance instance = SampleBitExchange(n, 8, rng);
      const auto protocol = MakeBitExchangeProtocol(instance);
      const SimulationResult result = sim.Simulate(*protocol, channel, rng);
      BenchPoint point;
      point.success = !result.budget_exhausted() &&
                      BitExchangeAllCorrect(instance, result.outputs);
      point.status = result.budget_exhausted() ? 2 : 0;
      point.rounds = result.noisy_rounds_used;
      point.value =
          static_cast<double>(result.noisy_rounds_used) / protocol->length();
      return point;
    });
  }
  ReportCell(state, run, n);
}
BENCHMARK(BM_RewindOverhead_BitExchange)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// Ablation: how the blowup splits between the simulation phase, the owner
// phase, and verification -- measured by turning the owner phase off
// (which breaks correctness under two-sided noise but isolates its cost).
void BM_RewindOverhead_NoOwnerAblation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const CorrelatedNoisyChannel channel(kEps);
  RewindSimOptions options;
  options.regime = NoiseRegime::kDownOnly;  // skips owners + uses 1 rep
  options.rep_factor =
      3 * CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n)) + 1;
  const RewindSimulator sim(options);
  BenchRun run;
  for (auto _ : state) {
    run = bench::RunTrials(kTrials, 3000 + n, [&](int, Rng& rng) {
      const InputSetInstance instance = SampleInputSet(n, rng);
      const auto protocol = MakeInputSetProtocol(instance);
      const SimulationResult result = sim.Simulate(*protocol, channel, rng);
      BenchPoint point;
      point.success = !result.budget_exhausted() &&
                      result.AllMatch(ReferenceTranscript(*protocol));
      point.status = result.budget_exhausted() ? 2 : 0;
      point.rounds = result.noisy_rounds_used;
      point.value =
          static_cast<double>(result.noisy_rounds_used) / protocol->length();
      return point;
    });
  }
  ReportCell(state, run, n);
}
BENCHMARK(BM_RewindOverhead_NoOwnerAblation)
    ->Arg(16)->Arg(64)->Arg(256)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// Noise-rate sensitivity at fixed n: where the default parameters run out
// of headroom as eps grows toward the repetition threshold, and what
// heavier parameters buy back.
void BM_RewindOverhead_NoiseSweep(benchmark::State& state) {
  const double eps = static_cast<double>(state.range(0)) / 100.0;
  const bool heavy = state.range(1) != 0;
  const int n = 32;
  const CorrelatedNoisyChannel channel(eps);
  RewindSimOptions options;
  if (heavy) {
    options.rep_c = 8;
    options.flag_reps = 40;
    options.code_length_factor = 10;
  }
  const RewindSimulator sim(options);
  const std::uint64_t seed = 4000 + state.range(0) + (heavy ? 17 : 0);
  BenchRun run;
  for (auto _ : state) {
    run = bench::RunTrials(kTrials, seed, [&](int, Rng& rng) {
      return InputSetPoint(sim, channel, n, rng);
    });
  }
  ReportCell(state, run, n);
}
BENCHMARK(BM_RewindOverhead_NoiseSweep)
    ->ArgsProduct({{2, 5, 10, 15, 20}, {0, 1}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
