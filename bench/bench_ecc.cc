// E6 -- the code substrate Algorithm 1 leans on: throughput of the
// encode/decode pipelines and the decode-error rate of the beep code
// under one-sided channel noise, as rate and noise vary.
//
// The decode-error-rate sweep (the one Monte Carlo section) runs through
// bench_harness.h's resilient engine and surfaces its run report; the
// throughput loops stay plain -- they time single operations, not trials.
#include <benchmark/benchmark.h>

#include "bench_harness.h"
#include "coding/beep_code.h"
#include "ecc/codebook.h"
#include "ecc/concatenated.h"
#include "ecc/hadamard.h"
#include "ecc/reed_solomon.h"
#include "ecc/repetition.h"
#include "util/math.h"
#include "util/rng.h"

namespace {

using namespace noisybeeps;

void BM_ReedSolomonEncode(benchmark::State& state) {
  const ReedSolomon rs(255, static_cast<int>(state.range(0)));
  Rng rng(1);
  std::vector<std::uint8_t> data(rs.data_symbols());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Encode(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rs.data_symbols());
}
BENCHMARK(BM_ReedSolomonEncode)->Arg(223)->Arg(127)->Arg(63);

void BM_ReedSolomonDecode(benchmark::State& state) {
  const ReedSolomon rs(255, 223);
  const int errors = static_cast<int>(state.range(0));
  Rng rng(2);
  std::vector<std::uint8_t> data(223);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  auto word = rs.Encode(data);
  for (int e = 0; e < errors; ++e) {
    word[rng.UniformInt(255)] ^=
        static_cast<std::uint8_t>(1 + rng.UniformInt(255));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Decode(word));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 255);
}
BENCHMARK(BM_ReedSolomonDecode)->Arg(0)->Arg(4)->Arg(16);

void BM_CodebookDecode(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const CodebookCode code =
      CodebookCode::Random(q, 8 * CeilLog2(q) + 8, 3);
  Rng rng(4);
  const BitString word = code.Encode(rng.UniformInt(q));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.Decode(word));
  }
}
BENCHMARK(BM_CodebookDecode)->Arg(17)->Arg(65)->Arg(257);

// Decode with the sent message as the hint, as the owner phase decodes:
// codewords through 5 % noise, cycled.  A certified word costs one
// distance; the rest scan the book as BM_CodebookDecode does.
// `full_scan_share` is the share that scanned.
void BM_CodebookDecodeHinted(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const CodebookCode code =
      CodebookCode::Random(q, 8 * CeilLog2(q) + 8, 3);
  Rng rng(4);
  constexpr std::size_t kWords = 256;
  std::vector<std::uint64_t> sent(kWords);
  std::vector<BitString> received;
  for (std::uint64_t& message : sent) {
    message = rng.UniformInt(q);
    BitString word = code.Encode(message);
    for (std::size_t i = 0; i < word.size(); ++i) {
      if (rng.Bernoulli(0.05)) word.Set(i, !word[i]);
    }
    received.push_back(std::move(word));
  }
  std::int64_t full_scans = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        code.DecodeWords(received[next].words(), sent[next], &full_scans));
    next = (next + 1) % kWords;
  }
  state.counters["full_scan_share"] =
      static_cast<double>(full_scans) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
}
BENCHMARK(BM_CodebookDecodeHinted)->Arg(17)->Arg(65)->Arg(257);

void BM_HadamardDecode(benchmark::State& state) {
  const HadamardCode code(static_cast<int>(state.range(0)));
  Rng rng(5);
  const BitString word = code.Encode(rng.UniformInt(code.num_messages()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.Decode(word));
  }
}
BENCHMARK(BM_HadamardDecode)->Arg(6)->Arg(8)->Arg(10);

void BM_ConcatenatedRoundTrip(benchmark::State& state) {
  const ConcatenatedCode code(
      ReedSolomon(32, 16),
      std::make_shared<CodebookCode>(CodebookCode::Random(256, 48, 7)));
  Rng rng(6);
  std::vector<std::uint8_t> data(16);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  for (auto _ : state) {
    const BitString word = code.Encode(data);
    benchmark::DoNotOptimize(code.Decode(word));
  }
}
BENCHMARK(BM_ConcatenatedRoundTrip);

// Decode-error rate of the beep code under one-sided-up noise, vs the
// length factor -- the rate/robustness trade Algorithm 1's analysis turns
// into the O(log n) cost.
void BM_BeepCodeErrorRate(benchmark::State& state) {
  const int factor = static_cast<int>(state.range(0));
  const double eps = static_cast<double>(state.range(1)) / 100.0;
  const BeepCode code(64, factor, 11);
  bench::BenchRun run;
  for (auto _ : state) {
    run = bench::RunTrials(2000, 15000 + factor, [&](int, Rng& rng) {
      const std::uint64_t msg = rng.UniformInt(65);
      BitString word = code.Encode(msg);
      for (std::size_t i = 0; i < word.size(); ++i) {
        if (!word[i] && rng.Bernoulli(eps)) word.Set(i, true);
      }
      bench::BenchPoint point;
      point.success = code.Decode(word) == msg;
      return point;
    });
  }
  state.counters["decode_error_rate"] = 1.0 - run.successes.rate();
  state.counters["codeword_bits"] =
      static_cast<double>(code.codeword_length());
  bench::SurfaceReport(state, run.report);
}
BENCHMARK(BM_BeepCodeErrorRate)
    ->ArgsProduct({{2, 4, 6, 8}, {5, 10, 20}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
