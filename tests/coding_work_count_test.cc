// Work counts: how often the simulators call a party's beep function.
//
// One round loop.  Execute, the repetition simulator and chunk simulation
// all run their protocol rounds through ExtendTranscripts.  While every
// party holds the same transcript and has received the same bits, it makes
// one Protocol::BeepWords call per round, which InputSet answers without
// asking any party.  From the first round whose delivered bits differ, m,
// it asks each party for each later round of the call; a call entered with
// unequal transcripts asks them from its first round.  So every simulated
// round costs one BeepWords call or n ChooseBeep calls.
//
// The chunk loop.  Each simulated round costs rep_factor noisy rounds of
// the "chunk-sim" phase, and verification and audits read the beeps
// recorded during chunk simulation, so they add no calls:
// ChooseBeep + n * BeepWords is exactly n * phase_rounds["chunk-sim"] /
// rep_factor.  On the cells' shared-draw channels without a fault plan
// every party hears every round alike, so ChooseBeep is not called at all.
// A scheme that replays the beep function to verify a chunk or audit the
// committed transcript calls it about twice as often.
//
// Execute's run of T rounds from empty transcripts makes m + 1 BeepWords
// calls (round m's beeps were chosen on the shared transcript) and
// n * (T - m - 1) ChooseBeep calls.  A loop that keeps n transcripts from
// the start makes n * T ChooseBeep calls.
//
// The round engine.  RoundEngine::RepeatRound runs each repetition as one
// shared bit when the engine shares rounds, and through RoundWords
// (O(n/64) per round) otherwise: on e2's shape every one of the T * reps
// rounds is a shared round, on the independent channel none is.  The owner
// phase sends each codeword as one SharedWordRounds call, L shared rounds,
// when the engine shares rounds, and each bit through RoundWords
// otherwise.  Its decodes start from the speaker's message, and only the
// words that do not certify it scan the book (full_scans).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coding/beep_code.h"
#include "coding/hierarchical_sim.h"
#include "coding/owner_finding.h"
#include "coding/repetition_sim.h"
#include "coding/rewind_sim.h"
#include "fault/fault_plan.h"
#include "fault/injection.h"
#include "service/workload.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

// Forwards to a party and counts its ChooseBeep calls.
class CountingParty final : public Party {
 public:
  CountingParty(const Party& inner, std::int64_t& calls)
      : inner_(inner), calls_(calls) {}

  [[nodiscard]] bool ChooseBeep(const BitString& prefix) const override {
    ++calls_;
    return inner_.ChooseBeep(prefix);
  }
  [[nodiscard]] PartyOutput ComputeOutput(const BitString& pi) const override {
    return inner_.ComputeOutput(pi);
  }

 private:
  const Party& inner_;
  std::int64_t& calls_;
};

// Wraps every party of a protocol in a CountingParty sharing one counter,
// and forwards BeepWords to the protocol's own, counting those calls
// apart.
class CountingProtocol final : public Protocol {
 public:
  explicit CountingProtocol(const Protocol& inner) : inner_(inner) {
    parties_.reserve(static_cast<std::size_t>(inner.num_parties()));
    for (int i = 0; i < inner.num_parties(); ++i) {
      parties_.emplace_back(inner.party(i), calls_);
    }
  }

  [[nodiscard]] int num_parties() const override {
    return inner_.num_parties();
  }
  [[nodiscard]] int length() const override { return inner_.length(); }
  [[nodiscard]] const Party& party(int i) const override {
    return parties_[static_cast<std::size_t>(i)];
  }
  void BeepWords(const BitString& prefix,
                 std::span<std::uint64_t> words) const override {
    ++beep_words_calls_;
    inner_.BeepWords(prefix, words);
  }
  // ChooseBeep calls.
  [[nodiscard]] std::int64_t calls() const { return calls_; }
  [[nodiscard]] std::int64_t beep_words_calls() const {
    return beep_words_calls_;
  }

 private:
  const Protocol& inner_;
  std::int64_t calls_ = 0;
  mutable std::int64_t beep_words_calls_ = 0;
  std::vector<CountingParty> parties_;
};

struct Case {
  std::string name;
  RewindSimOptions base;
  bool hierarchical;
  const char* channel;
  const char* task;
  int n;
  bool faults;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.name;
}

std::vector<Case> Cases() {
  struct Scheme {
    const char* name;
    RewindSimOptions base;
    bool hierarchical;
    const char* channel;
  };
  const Scheme schemes[] = {
      {"rewind", RewindSimOptions::TwoSided(), false, "correlated"},
      {"rewind_down", RewindSimOptions::DownOnly(), false, "down"},
      {"hierarchical", RewindSimOptions::TwoSided(), true, "correlated"},
      {"hierarchical_down", RewindSimOptions::DownOnly(), true, "down"},
  };
  struct Task {
    const char* name;
    int n;
  };
  const Task tasks[] = {{"input_set", 65}, {"random", 8}};
  std::vector<Case> cases;
  for (const Scheme& scheme : schemes) {
    for (const Task& task : tasks) {
      for (const bool faults : {false, true}) {
        cases.push_back(Case{std::string(scheme.name) + "_" + task.name +
                                 "_n" + std::to_string(task.n) +
                                 (faults ? "_faults" : ""),
                             scheme.base, scheme.hierarchical, scheme.channel,
                             task.name, task.n, faults});
      }
    }
  }
  return cases;
}

class ChooseBeepCount : public ::testing::TestWithParam<Case> {};

TEST_P(ChooseBeepCount, OnlyChunkSimulationCallsTheBeepFunction) {
  const Case& c = GetParam();
  Rng rng(7);
  const service::Workload workload = service::MakeWorkload(c.task, c.n, rng);
  const CountingProtocol protocol(*workload.protocol);
  const std::string channel_name = c.channel;
  const std::unique_ptr<Channel> channel =
      service::MakeChannel(channel_name, channel_name == "down" ? 0.1 : 0.05);
  const FaultPlan faults =
      c.faults ? FaultPlan::Parse("sleepy:2@200-600;babble:5@0-3000:0.3", 11)
               : FaultPlan();
  std::unique_ptr<Simulator> sim;
  if (c.hierarchical) {
    sim = std::make_unique<HierarchicalSimulator>(
        HierarchicalSimOptions{.base = c.base});
  } else {
    sim = std::make_unique<RewindSimulator>(c.base);
  }
  const SimulationResult result =
      sim->Simulate(protocol, *channel, faults, rng);

  const std::int64_t rep_factor =
      RewindSimulator(c.base).EffectiveRepFactor(c.n);
  const std::int64_t chunk_rounds = result.phase_rounds.at("chunk-sim");
  ASSERT_EQ(chunk_rounds % rep_factor, 0);
  ASSERT_GT(result.phase_rounds.at("verify-flags"), 0);
  if (c.hierarchical) {
    ASSERT_GT(result.phase_rounds.at("audit"), 0);
  }
  // E.g. rewind_down_input_set_n65_faults: 24,765 + 65 * 137 = 33,670.
  EXPECT_EQ(protocol.calls() + c.n * protocol.beep_words_calls(),
            c.n * chunk_rounds / rep_factor);
  if (!c.faults) {
    EXPECT_EQ(protocol.calls(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ChooseBeepCount, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<Case>& case_info) {
      return case_info.param.name;
    });

struct SharedCase {
  std::string name;
  bool simulator;  // RepetitionSimulator; otherwise Execute
  const char* channel;
  int n;
  bool faults;
};

std::ostream& operator<<(std::ostream& os, const SharedCase& c) {
  return os << c.name;
}

std::vector<SharedCase> SharedCases() {
  std::vector<SharedCase> cases;
  for (const bool simulator : {false, true}) {
    const std::string runner = simulator ? "repetition" : "execute";
    cases.push_back({runner + "_correlated_n65", simulator, "correlated", 65,
                     false});
    cases.push_back({runner + "_independent_n65", simulator, "independent",
                     65, false});
    cases.push_back({runner + "_correlated_n65_sleepy", simulator,
                     "correlated", 65, true});
  }
  // e2's shape: 2,097,152 ChooseBeep calls per trial in a loop that keeps
  // n transcripts from the start.
  cases.push_back({"repetition_correlated_n1024", true, "correlated", 1024,
                   false});
  return cases;
}

class SharedTranscriptCount : public ::testing::TestWithParam<SharedCase> {};

TEST_P(SharedTranscriptCount, PartiesAreAskedOnlyAfterTheyDiverge) {
  const SharedCase& c = GetParam();
  Rng rng(7);
  const service::Workload workload =
      service::MakeWorkload("input_set", c.n, rng);
  const CountingProtocol protocol(*workload.protocol);
  // At 0.3 a party's majority over the repetition simulator's 29 copies
  // of a round is wrong with probability ≈1.2 %, so one of 65 parties
  // decodes differently in about half of the rounds.
  const bool independent = std::string(c.channel) == "independent";
  const std::unique_ptr<Channel> channel =
      service::MakeChannel(c.channel, independent ? 0.3 : 0.05);
  // A receive fault: party 2 hears nothing in noisy rounds 20-600.
  const FaultPlan faults =
      c.faults ? FaultPlan::Parse("sleepy:2@20-600", 11) : FaultPlan();
  int divergent_round = -1;
  if (c.simulator) {
    const RepetitionSimulator sim;
    const SimulationResult result =
        sim.Simulate(protocol, *channel, faults, rng);
    const std::int64_t reps = sim.EffectiveRepFactor(c.n);
    if (result.verdict.first_divergence_round >= 0) {
      ASSERT_EQ(result.verdict.first_divergence_round % reps, 0);
      divergent_round =
          static_cast<int>(result.verdict.first_divergence_round / reps) - 1;
    }
  } else {
    divergent_round =
        Execute(protocol, *channel, faults, rng).first_divergent_round;
  }

  const std::int64_t n = c.n;
  const std::int64_t length = protocol.length();
  if (!independent && !c.faults) {
    EXPECT_EQ(divergent_round, -1);
    EXPECT_EQ(protocol.calls(), 0);
    EXPECT_EQ(protocol.beep_words_calls(), length);
    return;
  }
  ASSERT_GE(divergent_round, 0);
  ASSERT_LT(divergent_round, length / 2);
  EXPECT_EQ(protocol.beep_words_calls(), divergent_round + 1);
  EXPECT_EQ(protocol.calls(), n * (length - divergent_round - 1));
}

INSTANTIATE_TEST_SUITE_P(
    Runners, SharedTranscriptCount, ::testing::ValuesIn(SharedCases()),
    [](const ::testing::TestParamInfo<SharedCase>& case_info) {
      return case_info.param.name;
    });

// Forwards RoundWords to RoundEngine and counts the calls; the rounds it
// ran as one shared bit are the rest.  Counting changes nothing a party
// hears, so it shares rounds whenever a plain engine would.
class CountingEngine final : public RoundEngine {
 public:
  CountingEngine(const Channel& channel, Rng& rng, std::int64_t n)
      : RoundEngine(channel, rng, n, /*rewrites_bits=*/false) {}

  std::span<const std::uint64_t> RoundWords(
      std::span<const std::uint64_t> beep_words) override {
    ++round_words_calls_;
    return RoundEngine::RoundWords(beep_words);
  }

  [[nodiscard]] std::int64_t round_words_calls() const {
    return round_words_calls_;
  }

 private:
  std::int64_t round_words_calls_ = 0;
};

struct EngineCase {
  std::string name;
  const char* channel;
  int n;
  std::int64_t rounds;  // T * reps
};

std::ostream& operator<<(std::ostream& os, const EngineCase& c) {
  return os << c.name;
}

class RepetitionRoundCount : public ::testing::TestWithParam<EngineCase> {};

// Execute with the simulator's repetitions, as RepetitionSimulator runs
// it, on a counting engine; the simulator itself runs the same seed to
// show the rebuilt loop is the simulator's.
TEST_P(RepetitionRoundCount, SharedRoundsSkipTheWordPath) {
  const EngineCase& c = GetParam();
  const bool independent = std::string(c.channel) == "independent";
  const std::unique_ptr<Channel> channel =
      service::MakeChannel(c.channel, 0.05);
  const RepetitionSimulator sim;
  const int reps = sim.EffectiveRepFactor(c.n);

  Rng sim_rng(7);
  const service::Workload sim_workload =
      service::MakeWorkload("input_set", c.n, sim_rng);
  const SimulationResult expected =
      sim.Simulate(*sim_workload.protocol, *channel, FaultPlan(), sim_rng);

  Rng rng(7);
  const service::Workload workload =
      service::MakeWorkload("input_set", c.n, rng);
  CountingEngine engine(*channel, rng, c.n);
  engine.SetPhase("repetition");
  const ExecutionResult run = Execute(*workload.protocol, engine, reps);
  ASSERT_EQ(run.transcripts, expected.transcripts);
  ASSERT_EQ(engine.phase_rounds(), expected.phase_rounds);
  ASSERT_EQ(rng.SaveState(), sim_rng.SaveState());

  const std::int64_t rounds = c.rounds;
  ASSERT_EQ(rounds, std::int64_t{workload.protocol->length()} * reps);
  ASSERT_EQ(engine.rounds_used(), rounds);
  // The independent channel cannot share a round: every repetition runs
  // through RoundWords.
  EXPECT_EQ(engine.shares_rounds(), !independent);
  EXPECT_EQ(engine.round_words_calls(), independent ? rounds : 0);
}

INSTANTIATE_TEST_SUITE_P(
    Channels, RepetitionRoundCount,
    ::testing::Values(
        // e2_repetition's shape: 2,048 protocol rounds of 41 repetitions,
        // 83,968 rounds per trial.
        EngineCase{"correlated_n1024", "correlated", 1024, 83'968},
        // 130 protocol rounds of 29 repetitions.
        EngineCase{"independent_n65", "independent", 65, 3'770}),
    [](const ::testing::TestParamInfo<EngineCase>& case_info) {
      return case_info.param.name;
    });

// FindOwners at e1_rewind_correlated's shape: n = 128, chunk 128 and
// factor 6, so 54-round codewords over 128 + 128 iterations.  A plain
// engine on the same seed shows that counting changes nothing.
TEST(OwnerFindingRoundCount, SharedRoundsSkipTheWordPath) {
  constexpr int kParties = 128;
  constexpr int kChunk = 128;
  const BeepCode code(kChunk, 6, 0x5eedbee9 + kChunk);
  ASSERT_EQ(code.codeword_length(), 54u);
  // About one beeper per round, as InputSet's chunks have.
  Rng fixture_rng(11);
  std::vector<BitString> beeped(kParties, BitString(kChunk));
  BitString pi(kChunk);
  for (BitString& bits : beeped) {
    for (int m = 0; m < kChunk; ++m) {
      if (fixture_rng.Bernoulli(1.0 / kParties)) {
        bits.Set(m, true);
        pi.Set(m, true);
      }
    }
  }
  const std::vector<BitString> views(kParties, pi);
  const std::int64_t rounds = (kParties + kChunk) * 54;
  ASSERT_EQ(rounds, 13'824);
  // Decodes the speaker's message did not certify (d_min = 14: words
  // with 7 or more flips from its codeword).  None without noise; 4 of
  // the 256 shared decodes on the correlated channel; on the independent
  // channel, 485 over the n parties' decodes (about 1.5 % of 256 * 128).
  const std::map<std::string, std::int64_t> full_scans = {
      {"noiseless", 0}, {"correlated", 4}, {"independent", 485}};

  for (const std::string channel_name :
       {"noiseless", "correlated", "independent"}) {
    SCOPED_TRACE(channel_name);
    const bool independent = channel_name == "independent";
    const std::unique_ptr<Channel> channel =
        service::MakeChannel(channel_name, 0.05);
    Rng plain_rng(7);
    RoundEngine plain(*channel, plain_rng, kParties);
    const OwnerFindingResult expected = FindOwners(plain, code, views, beeped);

    Rng rng(7);
    CountingEngine engine(*channel, rng, kParties);
    const OwnerFindingResult result = FindOwners(engine, code, views, beeped);
    EXPECT_EQ(result.owners, expected.owners);
    EXPECT_EQ(engine.phase_rounds(), plain.phase_rounds());
    EXPECT_EQ(rng.SaveState(), plain_rng.SaveState());

    EXPECT_EQ(engine.phase_rounds().at("owner-finding"), rounds);
    EXPECT_EQ(engine.shares_rounds(), !independent);
    EXPECT_EQ(engine.round_words_calls(), independent ? rounds : 0);
    EXPECT_EQ(result.full_scans, full_scans.at(channel_name));
    EXPECT_EQ(expected.full_scans, result.full_scans);
  }
}

}  // namespace
}  // namespace noisybeeps
