#include "coding/hierarchical_sim.h"

#include <gtest/gtest.h>

#include "channel/correlated.h"
#include "channel/noiseless.h"
#include "channel/one_sided.h"
#include "tasks/bit_exchange.h"
#include "tasks/input_set.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(HierarchicalSim, NoiselessIsExact) {
  Rng rng(1);
  const NoiselessChannel channel;
  const HierarchicalSimulator sim;
  const InputSetInstance instance = SampleInputSet(8, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  EXPECT_TRUE(result.AllMatch(ReferenceTranscript(*protocol)));
  EXPECT_FALSE(result.budget_exhausted());
}

TEST(HierarchicalSim, RecoversUnderTwoSidedNoise) {
  Rng rng(2);
  const CorrelatedNoisyChannel channel(0.05);
  const HierarchicalSimulator sim;
  int correct = 0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    const InputSetInstance instance = SampleInputSet(16, rng);
    const auto protocol = MakeInputSetProtocol(instance);
    const SimulationResult result = sim.Simulate(*protocol, channel, rng);
    correct += result.AllMatch(ReferenceTranscript(*protocol)) &&
               InputSetAllCorrect(instance, result.outputs);
  }
  EXPECT_GE(correct, kTrials - 1);
}

TEST(HierarchicalSim, LongProtocolManyChunksStillExact) {
  // BitExchange with a large payload: T = n*k >> chunk size, exercising
  // many commits and several audit levels.
  Rng rng(3);
  const CorrelatedNoisyChannel channel(0.05);
  const HierarchicalSimulator sim;
  const BitExchangeInstance instance = SampleBitExchange(8, 40, rng);
  const auto protocol = MakeBitExchangeProtocol(instance);  // T = 320
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  EXPECT_FALSE(result.budget_exhausted());
  EXPECT_TRUE(result.AllMatch(ReferenceTranscript(*protocol)));
  EXPECT_TRUE(BitExchangeAllCorrect(instance, result.outputs));
}

TEST(HierarchicalSim, DownOnlyPresetWorksOnDownChannel) {
  Rng rng(4);
  const OneSidedDownChannel channel(0.15);
  const HierarchicalSimulator sim(HierarchicalSimOptions::DownOnly());
  int correct = 0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    const BitExchangeInstance instance = SampleBitExchange(8, 24, rng);
    const auto protocol = MakeBitExchangeProtocol(instance);
    const SimulationResult result = sim.Simulate(*protocol, channel, rng);
    correct += result.AllMatch(ReferenceTranscript(*protocol));
  }
  EXPECT_GE(correct, kTrials - 1);
}

TEST(HierarchicalSim, FinalAuditGateRejectsPlantedCorruption) {
  // With a level-0 flag budget of 1 rep on a noisy channel, bad chunks DO
  // get committed; the audits must catch and repair them, so the final
  // transcript is still exact.
  Rng rng(5);
  const CorrelatedNoisyChannel channel(0.05);
  HierarchicalSimOptions options;
  options.base.flag_reps = 1;  // deliberately flaky level-0 verdicts
  const HierarchicalSimulator sim(options);
  int correct = 0;
  constexpr int kTrials = 8;
  for (int t = 0; t < kTrials; ++t) {
    const InputSetInstance instance = SampleInputSet(12, rng);
    const auto protocol = MakeInputSetProtocol(instance);
    const SimulationResult result = sim.Simulate(*protocol, channel, rng);
    if (!result.budget_exhausted()) {
      correct += result.AllMatch(ReferenceTranscript(*protocol));
    }
  }
  // Termination requires the maximal-strength audit to pass on the full
  // transcript, so completed runs are correct.
  EXPECT_GE(correct, kTrials - 2);
}

TEST(HierarchicalSim, BudgetExhaustionIsReported) {
  Rng rng(6);
  const CorrelatedNoisyChannel channel(0.2);
  HierarchicalSimOptions options;
  options.base.max_rounds = 40;
  const HierarchicalSimulator sim(options);
  const InputSetInstance instance = SampleInputSet(16, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  EXPECT_TRUE(result.budget_exhausted());
}

TEST(HierarchicalSim, RejectsBadOptions) {
  HierarchicalSimOptions bad;
  bad.audit_flag_slope = -1;
  EXPECT_THROW(HierarchicalSimulator{bad}, std::invalid_argument);
}

TEST(HierarchicalSim, NamesIdentifyPresets) {
  EXPECT_EQ(HierarchicalSimulator().name(), "hierarchical(two-sided)");
  EXPECT_EQ(HierarchicalSimulator(HierarchicalSimOptions::DownOnly()).name(),
            "hierarchical(down-only)");
}

}  // namespace
}  // namespace noisybeeps
