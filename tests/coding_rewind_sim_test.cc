#include "coding/rewind_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>

#include "channel/correlated.h"
#include "channel/noiseless.h"
#include "channel/one_sided.h"
#include "service/job_spec.h"
#include "service/workload.h"
#include "tasks/adaptive_find.h"
#include "tasks/bit_exchange.h"
#include "tasks/input_set.h"
#include "tasks/leader_election.h"
#include "util/math.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(RewindSim, NoiselessChannelIsExactWithOwners) {
  Rng rng(1);
  const NoiselessChannel channel;
  const RewindSimulator sim;
  const InputSetInstance instance = SampleInputSet(8, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  const BitString reference = ReferenceTranscript(*protocol);
  EXPECT_TRUE(result.AllMatch(reference));
  EXPECT_FALSE(result.budget_exhausted());
  // Every 1 of the committed transcript carries a valid owner.
  for (std::size_t m = 0; m < reference.size(); ++m) {
    if (reference[m]) {
      const int owner = result.owners[0][m];
      ASSERT_GE(owner, 0) << m;
      EXPECT_EQ(instance.inputs[owner], static_cast<int>(m));
    }
  }
}

class RewindTwoSidedTest : public ::testing::TestWithParam<double> {};

TEST_P(RewindTwoSidedTest, RecoversInputSetUnderTwoSidedNoise) {
  const double eps = GetParam();
  Rng rng(42);
  const CorrelatedNoisyChannel channel(eps);
  const RewindSimulator sim;
  int correct = 0;
  constexpr int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    const InputSetInstance instance = SampleInputSet(16, rng);
    const auto protocol = MakeInputSetProtocol(instance);
    const SimulationResult result = sim.Simulate(*protocol, channel, rng);
    correct += !result.budget_exhausted() &&
               result.AllMatch(ReferenceTranscript(*protocol)) &&
               InputSetAllCorrect(instance, result.outputs);
  }
  EXPECT_GE(correct, kTrials - 1) << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(NoiseRates, RewindTwoSidedTest,
                         ::testing::Values(0.02, 0.05, 0.10));

TEST(RewindSim, RecoversBitExchangeUnderOneSidedUpNoise) {
  // The lower-bound channel itself (one-sided-up), moderate rate.
  Rng rng(43);
  const OneSidedUpChannel channel(0.1);
  const RewindSimulator sim;
  int correct = 0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    const BitExchangeInstance instance = SampleBitExchange(10, 6, rng);
    const auto protocol = MakeBitExchangeProtocol(instance);
    const SimulationResult result = sim.Simulate(*protocol, channel, rng);
    correct += BitExchangeAllCorrect(instance, result.outputs);
  }
  EXPECT_GE(correct, kTrials - 1);
}

TEST(RewindSim, RecoversAdaptiveProtocol) {
  Rng rng(44);
  const CorrelatedNoisyChannel channel(0.08);
  const RewindSimulator sim;
  int correct = 0;
  constexpr int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    const AdaptiveFindInstance instance = SampleAdaptiveFind(32, 0.2, rng);
    const auto protocol = MakeAdaptiveFindProtocol(instance);
    const SimulationResult result = sim.Simulate(*protocol, channel, rng);
    correct += AdaptiveFindAllCorrect(instance, result.outputs);
  }
  EXPECT_GE(correct, kTrials - 1);
}

TEST(RewindSim, DownOnlyPresetRecoversUnderDownNoise) {
  Rng rng(45);
  const OneSidedDownChannel channel(0.15);
  const RewindSimulator sim(RewindSimOptions::DownOnly());
  int correct = 0;
  constexpr int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    const InputSetInstance instance = SampleInputSet(16, rng);
    const auto protocol = MakeInputSetProtocol(instance);
    const SimulationResult result = sim.Simulate(*protocol, channel, rng);
    correct += result.AllMatch(ReferenceTranscript(*protocol));
  }
  EXPECT_GE(correct, kTrials - 1);
}

// Six trials at seed 1 on one worker, as `nbsim --trials=6 --seed=1
// --workers=1` runs them.  The theorem-shape tests below pin what these
// runs read; a fixed seed makes each a deterministic check, and each
// tolerance is the band the paper's claim allows around that reading.
service::JobResult SixTrials(const char* task, const char* channel,
                             double eps, const char* sim, int n) {
  service::JobSpec spec;
  spec.task = task;
  spec.channel = channel;
  spec.eps = eps;
  spec.sim = sim;
  spec.n = n;
  spec.trials = 6;
  spec.seed = 1;
  service::JobExecution exec;
  exec.num_workers = 1;
  return service::RunJob(spec, exec);
}

TEST(RewindSim, DownOnlyOverheadIsConstantInN) {
  // E3, the Section 2 asymmetry: under 1->0 noise the down-only preset's
  // blowup does not grow with n.  It read 2.03-2.44 on InputSet and
  // 2.20-2.64 on BitExchange over n = 8..128 (down eps = 0.10).
  for (const char* task : {"input_set", "bit_exchange"}) {
    for (const int n : {8, 16, 32, 64, 128}) {
      const service::JobResult run =
          SixTrials(task, "down", 0.10, "rewind_down", n);
      EXPECT_EQ(run.successes, run.trials) << task << " n=" << n;
      // Flat: every n within [2, 3], where log2(n) itself goes 3 -> 7.
      EXPECT_GE(run.mean_blowup, 2.0) << task << " n=" << n;
      EXPECT_LE(run.mean_blowup, 3.0) << task << " n=" << n;
    }
  }
}

TEST(RewindSim, TwoSidedOverheadIsLogarithmic) {
  // E1, Theorem 1.2: under correlated noise the blowup is O(log n).
  // blowup / log2(n) read 24.17, 21.62, 20.18 and 19.25 at n = 8, 16, 32
  // and 64 (correlated eps = 0.05), as in EXPERIMENTS.md: every chunk
  // commits first time.
  double previous = 25.0;
  for (const int n : {8, 16, 32, 64}) {
    const service::JobResult run =
        SixTrials("input_set", "correlated", 0.05, "rewind", n);
    EXPECT_EQ(run.successes, run.trials) << "n=" << n;  // 100 % success
    const double per_log_n =
        run.mean_blowup / CeilLog2(static_cast<std::uint64_t>(n));
    // At most 25 at n = 8, and no larger at any larger n: no slack.
    EXPECT_LE(per_log_n, previous) << "n=" << n;
    // At least 3: chunk simulation alone repeats every round
    // 3 * log2(n) + 1 times.
    EXPECT_GE(per_log_n, 3.0) << "n=" << n;
    previous = per_log_n;
  }
}

// Runs `protocol` under `options` on the noiseless channel, where no chunk
// is ever retried, and checks that each phase spent exactly the rounds in
// `want` and nothing else ran.  Returns the total.
std::int64_t NoiselessRounds(const Protocol& protocol,
                             const RewindSimOptions& options,
                             const std::map<std::string, std::int64_t>& want) {
  Rng rng(1);
  const SimulationResult result =
      RewindSimulator(options).Simulate(protocol, NoiselessChannel(), rng);
  EXPECT_TRUE(result.AllMatch(ReferenceTranscript(protocol)));
  EXPECT_EQ(result.phase_rounds, want)
      << "n=" << protocol.num_parties() << " T=" << protocol.length();
  std::int64_t total = 0;
  for (const auto& [phase, rounds] : want) total += rounds;
  EXPECT_EQ(result.noisy_rounds_used, total);
  return result.noisy_rounds_used;
}

// The two-sided defaults, with k = ceil(log2(max(n, 2))): a chunk of c
// protocol rounds costs
//   chunk-sim      c * (3k + 1)          every round repeated rep_c * k + 1
//   owner-finding  (c + n) * 6 * (ceil(log2(c + 1)) + 1)
//                                        c + n codewords, length factor 6
//   verify-flags   4k + 8
// and every phase sums its term over the chunks.
std::int64_t TwoSidedNoiselessRounds(const Protocol& protocol,
                                     int chunk_len) {
  const std::int64_t n = protocol.num_parties();
  const std::int64_t T = protocol.length();
  const std::int64_t k =
      CeilLog2(static_cast<std::uint64_t>(std::max<std::int64_t>(n, 2)));
  const std::int64_t full_chunk = chunk_len > 0 ? chunk_len : n;
  std::map<std::string, std::int64_t> want;
  for (std::int64_t start = 0; start < T; start += full_chunk) {
    const std::int64_t c = std::min(full_chunk, T - start);
    want["chunk-sim"] += c * (3 * k + 1);
    want["owner-finding"] +=
        (c + n) * 6 * (CeilLog2(static_cast<std::uint64_t>(c + 1)) + 1);
    want["verify-flags"] += 4 * k + 8;
  }
  RewindSimOptions options;
  options.chunk_len = chunk_len;
  return NoiselessRounds(protocol, options, want);
}

// The down-only preset: chunks of 8, no repetition, no owner phase and 5
// flag rounds a chunk, so T + 5 * ceil(T / 8).
std::int64_t DownOnlyNoiselessRounds(const Protocol& protocol) {
  const std::int64_t T = protocol.length();
  return NoiselessRounds(
      protocol, RewindSimOptions::DownOnly(),
      {{"chunk-sim", T}, {"verify-flags", 5 * ((T + 7) / 8)}});
}

TEST(RewindSim, NoiselessRoundCountIsClosedForm) {
  // InputSet (T = 2n) as `nbsim` reads it at these n, powers of two and
  // not.  BitExchange with 8-bit payloads (T = 8n) runs four times as many
  // chunks of the same length two-sided, and 13n rounds down-only.
  const int ns[] = {2, 3, 8, 65, 100, 128, 300};
  const std::int64_t two_sided[] = {184,   290,   1160, 15412,
                                    23672, 33352, 88888};
  const std::int64_t down_only[] = {9, 11, 26, 215, 325, 416, 975};
  for (std::size_t i = 0; i < std::size(ns); ++i) {
    const int n = ns[i];
    Rng rng(static_cast<std::uint64_t>(n));
    const InputSetInstance input_set = SampleInputSet(n, rng);
    const BitExchangeInstance bit_exchange = SampleBitExchange(n, 8, rng);
    const auto input_set_protocol = MakeInputSetProtocol(input_set);
    const auto bit_exchange_protocol = MakeBitExchangeProtocol(bit_exchange);
    EXPECT_EQ(TwoSidedNoiselessRounds(*input_set_protocol, 0), two_sided[i])
        << "n=" << n;
    EXPECT_EQ(TwoSidedNoiselessRounds(*bit_exchange_protocol, 0),
              4 * two_sided[i])
        << "n=" << n;
    EXPECT_EQ(DownOnlyNoiselessRounds(*input_set_protocol), down_only[i])
        << "n=" << n;
    EXPECT_EQ(DownOnlyNoiselessRounds(*bit_exchange_protocol), 13 * n)
        << "n=" << n;
  }
  // A chunk length that does not divide T: n = 8, T = 16 in chunks of
  // 7, 7 and 2 -> 2 * 450 + 220.
  Rng rng(8);
  const InputSetInstance instance = SampleInputSet(8, rng);
  EXPECT_EQ(TwoSidedNoiselessRounds(*MakeInputSetProtocol(instance), 7),
            1120);
}

TEST(RewindSim, TinyBudgetExhaustsGracefully) {
  Rng rng(48);
  const CorrelatedNoisyChannel channel(0.2);
  RewindSimOptions options;
  options.max_rounds = 50;  // far below what a 16-party InputSet needs
  const RewindSimulator sim(options);
  const InputSetInstance instance = SampleInputSet(16, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  EXPECT_TRUE(result.budget_exhausted());
  EXPECT_LE(result.noisy_rounds_used, 50 + 20000);  // one overshoot loop max
  // Outputs still produced (padded transcript).
  EXPECT_EQ(result.outputs.size(), 16u);
}

TEST(RewindSim, EffectiveParameterDefaults) {
  const RewindSimulator two_sided;
  EXPECT_EQ(two_sided.EffectiveChunkLen(32), 32);
  EXPECT_EQ(two_sided.EffectiveRepFactor(32), 3 * 5 + 1);
  EXPECT_EQ(two_sided.EffectiveFlagReps(32), 4 * 5 + 8);
  const RewindSimulator down(RewindSimOptions::DownOnly());
  EXPECT_EQ(down.EffectiveChunkLen(32), 8);
  EXPECT_EQ(down.EffectiveRepFactor(32), 1);
  EXPECT_EQ(down.EffectiveFlagReps(32), 5);
}

TEST(RewindSim, RejectsBadOptions) {
  RewindSimOptions bad;
  bad.chunk_len = -1;
  EXPECT_THROW(RewindSimulator{bad}, std::invalid_argument);
  RewindSimOptions bad2;
  bad2.rep_c = 0;
  EXPECT_THROW(RewindSimulator{bad2}, std::invalid_argument);
}

}  // namespace
}  // namespace noisybeeps
