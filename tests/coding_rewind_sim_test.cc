#include "coding/rewind_sim.h"

#include <gtest/gtest.h>

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
