#include "fault/injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/noiseless.h"
#include "coding/hierarchical_sim.h"
#include "coding/repetition_sim.h"
#include "coding/rewind_sim.h"
#include "fault/fault_plan.h"
#include "tasks/input_set.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

// Runs one noisy round where exactly the parties in `beepers` beep, and
// returns the per-party received bits.
std::vector<std::uint8_t> OneRound(RoundEngine& engine,
                                   std::vector<std::uint8_t> beeps) {
  const auto received = engine.Round(beeps);
  return {received.begin(), received.end()};
}

TEST(FaultInjector, RejectsPlansNamingAbsentParties) {
  FaultPlan plan;
  plan.CrashStop(5, 0);
  EXPECT_THROW(FaultInjector(plan, 5), std::invalid_argument);
  EXPECT_NO_THROW(FaultInjector(plan, 6));
}

TEST(FaultyRoundEngine, CrashStopSilencesAndDeafens) {
  const NoiselessChannel channel;
  Rng rng(1);
  FaultPlan plan;
  plan.CrashStop(0, 2);
  FaultyRoundEngine engine(channel, rng, 2, plan);

  // Rounds 0 and 1: party 0 still works.
  EXPECT_EQ(OneRound(engine, {1, 0}), (std::vector<std::uint8_t>{1, 1}));
  EXPECT_EQ(OneRound(engine, {1, 0}), (std::vector<std::uint8_t>{1, 1}));
  // From round 2 on: its beep is suppressed (the OR drops to 0) and its
  // own received bit is forced to 0 even when another party beeps.
  EXPECT_EQ(OneRound(engine, {1, 0}), (std::vector<std::uint8_t>{0, 0}));
  EXPECT_EQ(OneRound(engine, {0, 1}), (std::vector<std::uint8_t>{0, 1}));
}

TEST(FaultyRoundEngine, SleepyIsCrashLimitedToAWindow) {
  const NoiselessChannel channel;
  Rng rng(1);
  FaultPlan plan;
  plan.Sleepy(0, 1, 2);
  FaultyRoundEngine engine(channel, rng, 2, plan);

  EXPECT_EQ(OneRound(engine, {1, 0}), (std::vector<std::uint8_t>{1, 1}));
  EXPECT_EQ(OneRound(engine, {1, 0}), (std::vector<std::uint8_t>{0, 0}));
  EXPECT_EQ(OneRound(engine, {0, 1}), (std::vector<std::uint8_t>{0, 1}));
  // Round 3: awake again.
  EXPECT_EQ(OneRound(engine, {1, 0}), (std::vector<std::uint8_t>{1, 1}));
}

TEST(FaultyRoundEngine, StuckBeeperForcesTheOrHigh) {
  const NoiselessChannel channel;
  Rng rng(1);
  FaultPlan plan;
  plan.StuckBeeper(1, 0, 1);
  FaultyRoundEngine engine(channel, rng, 3, plan);

  // Nobody intends to beep, but party 1 is stuck: everyone hears 1.
  EXPECT_EQ(OneRound(engine, {0, 0, 0}),
            (std::vector<std::uint8_t>{1, 1, 1}));
  EXPECT_EQ(OneRound(engine, {0, 0, 0}),
            (std::vector<std::uint8_t>{1, 1, 1}));
  // Window over: silence is silence again.
  EXPECT_EQ(OneRound(engine, {0, 0, 0}),
            (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(FaultyRoundEngine, DeafReceiverStillBeepsButHearsNothing) {
  const NoiselessChannel channel;
  Rng rng(1);
  FaultPlan plan;
  plan.DeafReceiver(0, 0, 0);
  FaultyRoundEngine engine(channel, rng, 2, plan);

  // Party 0's beep still reaches party 1, but party 0 itself hears 0.
  EXPECT_EQ(OneRound(engine, {1, 0}), (std::vector<std::uint8_t>{0, 1}));
  // Window over.
  EXPECT_EQ(OneRound(engine, {1, 0}), (std::vector<std::uint8_t>{1, 1}));
}

TEST(FaultyRoundEngine, BabblerIsDeterministicInThePlanSeed) {
  const NoiselessChannel channel;
  FaultPlan plan(123);
  plan.Babbler(0, 0, 999, 0.5);

  auto run = [&] {
    Rng rng(1);
    FaultyRoundEngine engine(channel, rng, 2, plan);
    std::vector<std::uint8_t> heard;
    for (int r = 0; r < 64; ++r) {
      heard.push_back(OneRound(engine, {0, 0})[1]);
    }
    return heard;
  };
  const std::vector<std::uint8_t> first = run();
  EXPECT_EQ(run(), first);  // same plan seed -> same babble
  // A fair babbler over 64 silent rounds beeps at least once and stays
  // silent at least once (probability 2^-63 otherwise).
  std::size_t ones = 0;
  for (std::uint8_t b : first) ones += b;
  EXPECT_GT(ones, 0u);
  EXPECT_LT(ones, 64u);

  // A different plan seed gives a different stream.
  FaultPlan other(124);
  other.Babbler(0, 0, 999, 0.5);
  Rng rng(1);
  FaultyRoundEngine engine(channel, rng, 2, other);
  std::vector<std::uint8_t> heard;
  for (int r = 0; r < 64; ++r) {
    heard.push_back(OneRound(engine, {0, 0})[1]);
  }
  EXPECT_NE(heard, first);
}

TEST(FaultyRoundEngine, BabblerStreamIsIndependentOfTheChannelRng) {
  // The babbler must not consume channel randomness: its beep sequence is
  // identical whether the channel rng starts at seed 1 or seed 2.
  const NoiselessChannel channel;
  FaultPlan plan(5);
  plan.Babbler(0, 0, 999, 0.5);
  auto run = [&](std::uint64_t channel_seed) {
    Rng rng(channel_seed);
    FaultyRoundEngine engine(channel, rng, 2, plan);
    std::vector<std::uint8_t> heard;
    for (int r = 0; r < 32; ++r) {
      heard.push_back(OneRound(engine, {0, 0})[1]);
    }
    return heard;
  };
  EXPECT_EQ(run(1), run(2));
}

TEST(FaultyRoundEngine, OverlappingSpecsComposeInPlanOrder) {
  const NoiselessChannel channel;
  Rng rng(1);
  // Party 0 is both stuck and (later in the plan) crashed over the same
  // window: the LAST active spec wins, so it stays silent.
  FaultPlan plan;
  plan.StuckBeeper(0, 0, 9).CrashStop(0, 0);
  FaultyRoundEngine engine(channel, rng, 2, plan);
  EXPECT_EQ(OneRound(engine, {0, 0}), (std::vector<std::uint8_t>{0, 0}));

  // Reversed order: the stuck spec overrides the crash on the send side.
  Rng rng2(1);
  FaultPlan reversed;
  reversed.CrashStop(0, 0).StuckBeeper(0, 0, 9);
  FaultyRoundEngine engine2(channel, rng2, 2, reversed);
  EXPECT_EQ(OneRound(engine2, {0, 0}), (std::vector<std::uint8_t>{0, 1}));
}

TEST(FaultyRoundEngine, ActivePlanValidatesTheBeepSpanBeforeUsingIt) {
  // The engine copies the caller's words into buffers sized for
  // num_parties(): the span must be checked first, exactly as a plain
  // RoundEngine checks it.
  const NoiselessChannel channel;
  Rng rng(1);
  FaultPlan plan;
  plan.CrashStop(69, 0);
  FaultyRoundEngine engine(channel, rng, 70, plan);
  const std::vector<std::uint64_t> short_span(1, 0);
  const std::vector<std::uint64_t> long_span(3, 0);
  std::vector<std::uint64_t> dirty_tail(2, 0);
  dirty_tail.back() = std::uint64_t{1} << 6;  // party 70 does not exist
  EXPECT_THROW((void)engine.RoundWords(short_span), std::invalid_argument);
  EXPECT_THROW((void)engine.RoundWords(long_span), std::invalid_argument);
  EXPECT_THROW((void)engine.RoundWords(dirty_tail), std::invalid_argument);
  const std::vector<std::uint8_t> short_bytes(69, 0);
  EXPECT_THROW((void)engine.Round(short_bytes), std::invalid_argument);
  EXPECT_EQ(engine.rounds_used(), 0);
}

TEST(FaultExecute, EmptyPlanReproducesPlainExecuteBitForBit) {
  Rng setup(7);
  const InputSetInstance instance = SampleInputSet(6, setup);
  const auto protocol = MakeInputSetProtocol(instance);
  const CorrelatedNoisyChannel channel(0.2);

  Rng a(42);
  const ExecutionResult plain = Execute(*protocol, channel, a);
  Rng b(42);
  const ExecutionResult faulted = Execute(*protocol, channel, FaultPlan(), b);
  EXPECT_EQ(faulted.transcripts, plain.transcripts);
  EXPECT_EQ(faulted.outputs, plain.outputs);
}

TEST(FaultExecute, CrashedPartyChangesTheSharedTranscript) {
  Rng setup(8);
  const InputSetInstance instance = SampleInputSet(4, setup);
  const auto protocol = MakeInputSetProtocol(instance);
  const NoiselessChannel channel;

  Rng a(1);
  const ExecutionResult reference = Execute(*protocol, channel, a);
  FaultPlan plan;
  plan.CrashStop(0, 0);
  Rng b(1);
  const ExecutionResult faulted = Execute(*protocol, channel, plan, b);
  // Party 0 announces its input-set membership by beeping; with it dead
  // from round 0 the noiseless shared transcript must change.
  EXPECT_NE(faulted.shared(), reference.shared());
}

// A sleepy receiver hears 0 in its window: the parties' transcripts part
// at the first round of the window in which the others hear a 1.
TEST(FaultExecute, SleepyReceiverDivergesAtTheFirstRoundItMisses) {
  InputSetInstance instance;
  instance.inputs = {0, 1, 2, 3, 4, 5, 6, 7};  // beeps in rounds 0..7
  const auto protocol = MakeInputSetProtocol(instance);
  const NoiselessChannel channel;
  FaultPlan plan;
  plan.Sleepy(2, 4, 9);  // party 2 beeps in round 2, before its window
  Rng rng(1);
  const ExecutionResult result = Execute(*protocol, channel, plan, rng);
  EXPECT_EQ(result.first_divergent_round, 4);
  const BitString reference = ReferenceTranscript(*protocol);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(result.transcripts[i],
              i == 2 ? BitString::FromString("1111000000000000") : reference)
        << "party " << i;
  }

  // A window in which every round is a 0 changes nothing.
  FaultPlan quiet;
  quiet.Sleepy(2, 8, 15);
  Rng quiet_rng(1);
  EXPECT_EQ(Execute(*protocol, channel, quiet, quiet_rng).first_divergent_round,
            -1);
}

// The golden zero-fault no-op, pinned for every simulator: Simulate with
// an explicitly empty FaultPlan is bit-for-bit the 3-arg fault-free path.
template <typename Sim>
void ExpectEmptyPlanIsANoOp(const Sim& sim) {
  Rng setup(11);
  const InputSetInstance instance = SampleInputSet(8, setup);
  const auto protocol = MakeInputSetProtocol(instance);
  const CorrelatedNoisyChannel channel(0.05);

  Rng a(99);
  const SimulationResult plain = sim.Simulate(*protocol, channel, a);
  Rng b(99);
  const SimulationResult faulted =
      sim.Simulate(*protocol, channel, FaultPlan(), b);
  EXPECT_EQ(faulted.transcripts, plain.transcripts);
  EXPECT_EQ(faulted.outputs, plain.outputs);
  EXPECT_EQ(faulted.noisy_rounds_used, plain.noisy_rounds_used);
  EXPECT_EQ(faulted.verdict.status, plain.verdict.status);
}

TEST(FaultGoldenNoOp, Repetition) {
  ExpectEmptyPlanIsANoOp(RepetitionSimulator());
}

TEST(FaultGoldenNoOp, Rewind) { ExpectEmptyPlanIsANoOp(RewindSimulator()); }

TEST(FaultGoldenNoOp, RewindDown) {
  ExpectEmptyPlanIsANoOp(RewindSimulator(RewindSimOptions::DownOnly()));
}

TEST(FaultGoldenNoOp, Hierarchical) {
  ExpectEmptyPlanIsANoOp(HierarchicalSimulator());
}

TEST(FaultSimulate, SameSeedAndPlanReproduceBitIdentically) {
  Rng setup(13);
  const InputSetInstance instance = SampleInputSet(6, setup);
  const auto protocol = MakeInputSetProtocol(instance);
  const CorrelatedNoisyChannel channel(0.05);
  const RewindSimulator sim;
  FaultPlan plan(77);
  plan.Babbler(1, 0, 300, 0.3).Sleepy(2, 50, 120);

  auto run = [&] {
    Rng rng(5);
    return sim.Simulate(*protocol, channel, plan, rng);
  };
  const SimulationResult first = run();
  const SimulationResult second = run();
  EXPECT_EQ(second.transcripts, first.transcripts);
  EXPECT_EQ(second.noisy_rounds_used, first.noisy_rounds_used);
  EXPECT_EQ(second.verdict.status, first.verdict.status);
  EXPECT_EQ(second.verdict.agreement, first.verdict.agreement);
  EXPECT_EQ(second.verdict.first_divergent_phase,
            first.verdict.first_divergent_phase);
}

TEST(FaultSimulate, HealthyMajoritySurvivesADeafParty) {
  // Independent channel + deaf party: the afflicted party's transcript may
  // drift, but the other parties must still agree among themselves -- the
  // degradation is graceful, never total.
  Rng setup(17);
  const InputSetInstance instance = SampleInputSet(8, setup);
  const auto protocol = MakeInputSetProtocol(instance);
  const IndependentNoisyChannel channel(0.02);
  const RepetitionSimulator sim;
  FaultPlan plan;
  plan.DeafReceiver(3, 0, FaultSpec::kNoLastRound - 1);

  Rng rng(3);
  const SimulationResult result = sim.Simulate(*protocol, channel, plan, rng);
  ASSERT_EQ(result.verdict.agreement.size(), 8u);
  EXPECT_GE(result.verdict.majority_size, 7);
  EXPECT_NE(result.verdict.status, SimulationStatus::kFailed);
  // The majority transcript is the healthy parties' common one.
  EXPECT_EQ(result.verdict.majority_transcript, result.transcripts[0]);
}

TEST(ComputeVerdict, UnanimousFullLengthIsOk) {
  const BitString t({1, 0, 1});
  const SimulationVerdict v = ComputeVerdict({t, t, t}, 3, false);
  EXPECT_EQ(v.status, SimulationStatus::kOk);
  EXPECT_EQ(v.agreement, (std::vector<int>{3, 3, 3}));
  EXPECT_EQ(v.majority_size, 3);
  EXPECT_EQ(v.majority_transcript, t);
  EXPECT_FALSE(v.budget_exhausted);
}

TEST(ComputeVerdict, StrictMajorityIsDegraded) {
  const BitString good({1, 0, 1});
  const BitString bad({0, 0, 0});
  const SimulationVerdict v = ComputeVerdict({good, good, bad}, 3, false);
  EXPECT_EQ(v.status, SimulationStatus::kDegraded);
  EXPECT_EQ(v.agreement, (std::vector<int>{2, 2, 1}));
  EXPECT_EQ(v.majority_size, 2);
  EXPECT_EQ(v.majority_transcript, good);
}

TEST(ComputeVerdict, NoStrictMajorityIsFailed) {
  const BitString a({1, 1});
  const BitString b({0, 0});
  const SimulationVerdict v = ComputeVerdict({a, a, b, b}, 2, false);
  EXPECT_EQ(v.status, SimulationStatus::kFailed);
  EXPECT_EQ(v.majority_size, 2);
  // Tied pluralities break toward the lexicographically least transcript.
  EXPECT_EQ(v.majority_transcript, b);
}

TEST(ComputeVerdict, BudgetExhaustionDemotesOkToDegraded) {
  const BitString t({1, 0});
  const SimulationVerdict v = ComputeVerdict({t, t}, 4, true);
  EXPECT_EQ(v.status, SimulationStatus::kDegraded);
  EXPECT_TRUE(v.budget_exhausted);
  // A short transcript is never kOk even without the flag.
  EXPECT_EQ(ComputeVerdict({t, t}, 4, false).status,
            SimulationStatus::kDegraded);
}

// The all-pairs verdict ComputeVerdict used before it grouped transcripts
// by sorting, kept as the reference: agreement by n^2 equality tests, and
// the plurality tie broken by a bit-at-a-time lexicographic compare.
SimulationVerdict ReferenceVerdict(const std::vector<BitString>& transcripts,
                                   int full_length, bool budget_exhausted) {
  const auto bits_less = [](const BitString& a, const BitString& b) {
    const std::size_t common = a.size() < b.size() ? a.size() : b.size();
    for (std::size_t i = 0; i < common; ++i) {
      if (a[i] != b[i]) return !a[i];
    }
    return a.size() < b.size();
  };
  const int n = static_cast<int>(transcripts.size());
  SimulationVerdict verdict;
  verdict.budget_exhausted = budget_exhausted;
  verdict.agreement.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (transcripts[i] == transcripts[j]) ++verdict.agreement[i];
    }
  }
  int best = 0;
  for (int i = 0; i < n; ++i) {
    const bool bigger = verdict.agreement[i] > verdict.agreement[best];
    const bool tie_less = verdict.agreement[i] == verdict.agreement[best] &&
                          bits_less(transcripts[i], transcripts[best]);
    if (bigger || tie_less) best = i;
  }
  verdict.majority_size = verdict.agreement[best];
  verdict.majority_transcript = transcripts[best];
  if (!budget_exhausted && verdict.majority_size == n &&
      static_cast<int>(verdict.majority_transcript.size()) == full_length) {
    verdict.status = SimulationStatus::kOk;
  } else if (2 * verdict.majority_size > n) {
    verdict.status = SimulationStatus::kDegraded;
  } else {
    verdict.status = SimulationStatus::kFailed;
  }
  return verdict;
}

void ExpectReferenceVerdict(const std::vector<BitString>& transcripts,
                            int full_length, bool budget_exhausted) {
  const SimulationVerdict expected =
      ReferenceVerdict(transcripts, full_length, budget_exhausted);
  const SimulationVerdict actual =
      ComputeVerdict(transcripts, full_length, budget_exhausted);
  EXPECT_EQ(actual.status, expected.status);
  EXPECT_EQ(actual.budget_exhausted, expected.budget_exhausted);
  EXPECT_EQ(actual.agreement, expected.agreement);
  EXPECT_EQ(actual.majority_size, expected.majority_size);
  EXPECT_EQ(actual.majority_transcript, expected.majority_transcript);
  EXPECT_EQ(actual.first_divergent_phase, expected.first_divergent_phase);
  EXPECT_EQ(actual.first_divergence_round, expected.first_divergence_round);
}

BitString RandomBits(std::size_t len, Rng& rng) {
  BitString bits;
  for (std::size_t i = 0; i < len; ++i) bits.PushBack(rng.Bit());
  return bits;
}

TEST(ComputeVerdict, MatchesTheAllPairsReference) {
  const int kParties[] = {1, 2, 3, 65, 130};
  const std::size_t kLengths[] = {0, 63, 64, 65, 130};
  for (const int n : kParties) {
    for (const std::size_t len : kLengths) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " len " << len);
      const int full = static_cast<int>(len);
      Rng rng(static_cast<std::uint64_t>(n) * 1000 + len);
      const BitString a = RandomBits(len, rng);
      // All equal.
      ExpectReferenceVerdict(std::vector<BitString>(n, a), full, false);
      ExpectReferenceVerdict(std::vector<BitString>(n, a), full, true);
      // Two groups of equal size (plus one more when n is odd) that differ
      // only in their last bit: the tie goes to the one with a 0 there.
      if (len > 0) {
        BitString b = a;
        b.Set(len - 1, !a[len - 1]);
        std::vector<BitString> halves;
        for (int i = 0; i < n; ++i) halves.push_back(i % 2 == 0 ? b : a);
        ExpectReferenceVerdict(halves, full, false);
        // A proper prefix of the others, and the empty transcript.
        std::vector<BitString> prefixes(n, a);
        prefixes[0] = a.Prefix(len - 1);
        if (n > 2) prefixes[n - 1] = BitString();
        ExpectReferenceVerdict(prefixes, full, false);
      }
    }
  }
}

TEST(ComputeVerdict, MatchesTheAllPairsReferenceOnRandomFamilies) {
  const int kParties[] = {1, 2, 3, 65, 130};
  const std::size_t kLengths[] = {0, 63, 64, 65, 130};
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 500);
    for (const int n : kParties) {
      for (const std::size_t len : kLengths) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " n " << n << " len " << len);
        // A few base transcripts, each with variants one bit flip or a few
        // bits of truncation away; every party holds one of them.
        std::vector<BitString> family{RandomBits(len, rng)};
        const std::size_t variants = 1 + rng.UniformInt(5);
        for (std::size_t v = 0; v < variants; ++v) {
          BitString variant = family[rng.UniformInt(family.size())];
          if (variant.size() > 0 && rng.Bit()) {
            const std::size_t pos = rng.UniformInt(variant.size());
            variant.Set(pos, !variant[pos]);
          } else if (variant.size() > 0) {
            variant.Truncate(variant.size() - 1 -
                             rng.UniformInt(std::min<std::size_t>(
                                 variant.size(), 3)));
          }
          family.push_back(variant);
        }
        std::vector<BitString> transcripts;
        for (int i = 0; i < n; ++i) {
          transcripts.push_back(family[rng.UniformInt(family.size())]);
        }
        ExpectReferenceVerdict(transcripts, static_cast<int>(len),
                               seed % 3 == 0);
      }
    }
  }
}

TEST(ComputeVerdict, StatusNamesAreStable) {
  EXPECT_EQ(SimulationStatusName(SimulationStatus::kOk), "ok");
  EXPECT_EQ(SimulationStatusName(SimulationStatus::kDegraded), "degraded");
  EXPECT_EQ(SimulationStatusName(SimulationStatus::kFailed), "failed");
}

}  // namespace
}  // namespace noisybeeps
