#include "coding/owner_finding.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "channel/burst.h"
#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/noiseless.h"
#include "channel/one_sided.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

// Builds per-party beep matrices b[i] (chunk_len bits each) and the
// resulting true transcript pi = OR_i b[i].
struct OwnerFixture {
  std::vector<BitString> beeped;
  BitString pi;
};

OwnerFixture RandomFixture(int n, int chunk_len, double density, Rng& rng) {
  OwnerFixture fx;
  fx.beeped.assign(n, BitString());
  for (int i = 0; i < n; ++i) {
    for (int m = 0; m < chunk_len; ++m) {
      fx.beeped[i].PushBack(rng.Bernoulli(density));
    }
  }
  for (int m = 0; m < chunk_len; ++m) {
    bool any = false;
    for (int i = 0; i < n; ++i) any = any || fx.beeped[i][m];
    fx.pi.PushBack(any);
  }
  return fx;
}

// Seeds per differential cell.
constexpr int kDiffSeeds = 20;

std::vector<BitString> SharedView(const BitString& pi, int n) {
  return std::vector<BitString>(n, pi);
}

TEST(OwnerFinding, NoiselessAssignsValidOwners) {
  Rng rng(1);
  const NoiselessChannel channel;
  const int n = 6;
  const int chunk = 12;
  const BeepCode code(chunk, 6, 7);
  for (int trial = 0; trial < 10; ++trial) {
    const OwnerFixture fx = RandomFixture(n, chunk, 0.2, rng);
    RoundEngine engine(channel, rng, n);
    const OwnerFindingResult result =
        FindOwners(engine, code, SharedView(fx.pi, n), fx.beeped);
    EXPECT_TRUE(OwnersValid(result, fx.pi, fx.beeped)) << trial;
  }
}

TEST(OwnerFinding, ZeroRoundsGetNoOwner) {
  Rng rng(2);
  const NoiselessChannel channel;
  const int n = 4;
  const int chunk = 8;
  const BeepCode code(chunk, 6, 7);
  const OwnerFixture fx = RandomFixture(n, chunk, 0.15, rng);
  RoundEngine engine(channel, rng, n);
  const OwnerFindingResult result =
      FindOwners(engine, code, SharedView(fx.pi, n), fx.beeped);
  for (int m = 0; m < chunk; ++m) {
    if (!fx.pi[m]) {
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(result.owners[i][m], -1) << "round " << m;
      }
    }
  }
}

TEST(OwnerFinding, AllOnesChunkFullyOwned) {
  // Every party beeps everywhere: all rounds must get owners.
  Rng rng(3);
  const NoiselessChannel channel;
  const int n = 5;
  const int chunk = 10;
  const BeepCode code(chunk, 6, 7);
  OwnerFixture fx;
  fx.beeped.assign(n, BitString());
  for (int i = 0; i < n; ++i) {
    for (int m = 0; m < chunk; ++m) fx.beeped[i].PushBack(true);
  }
  for (int m = 0; m < chunk; ++m) fx.pi.PushBack(true);
  RoundEngine engine(channel, rng, n);
  const OwnerFindingResult result =
      FindOwners(engine, code, SharedView(fx.pi, n), fx.beeped);
  EXPECT_TRUE(OwnersValid(result, fx.pi, fx.beeped));
  // With everyone able to own everything, party 0 (first turn) should own
  // every round.
  for (int m = 0; m < chunk; ++m) {
    EXPECT_EQ(result.owners[0][m], 0) << m;
  }
}

TEST(OwnerFinding, UniqueBeepersGetThemselves) {
  // Party i beeps exactly in round i: owner of round i must be i.
  Rng rng(4);
  const NoiselessChannel channel;
  const int n = 6;
  const BeepCode code(n, 6, 7);
  OwnerFixture fx;
  fx.beeped.assign(n, BitString());
  for (int i = 0; i < n; ++i) {
    for (int m = 0; m < n; ++m) fx.beeped[i].PushBack(m == i);
  }
  for (int m = 0; m < n; ++m) fx.pi.PushBack(true);
  RoundEngine engine(channel, rng, n);
  const OwnerFindingResult result =
      FindOwners(engine, code, SharedView(fx.pi, n), fx.beeped);
  for (int m = 0; m < n; ++m) {
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(result.owners[i][m], m);
    }
  }
}

TEST(OwnerFinding, RoundBudgetIsIterationsTimesCodeword) {
  Rng rng(5);
  const NoiselessChannel channel;
  const int n = 4;
  const int chunk = 6;
  const BeepCode code(chunk, 6, 7);
  const OwnerFixture fx = RandomFixture(n, chunk, 0.3, rng);
  RoundEngine engine(channel, rng, n);
  (void)FindOwners(engine, code, SharedView(fx.pi, n), fx.beeped);
  EXPECT_EQ(engine.rounds_used(),
            static_cast<std::int64_t>(chunk + n) * code.codeword_length());
}

class OwnerFindingNoiseTest : public ::testing::TestWithParam<double> {};

TEST_P(OwnerFindingNoiseTest, SurvivesChannelNoiseWithHighProbability) {
  const double eps = GetParam();
  Rng rng(6);
  const OneSidedUpChannel channel(eps);
  const int n = 8;
  const int chunk = 16;
  const BeepCode code(chunk, 8, 7);
  int good = 0;
  constexpr int kTrials = 25;
  for (int t = 0; t < kTrials; ++t) {
    const OwnerFixture fx = RandomFixture(n, chunk, 0.2, rng);
    RoundEngine engine(channel, rng, n);
    const OwnerFindingResult result =
        FindOwners(engine, code, SharedView(fx.pi, n), fx.beeped);
    good += OwnersValid(result, fx.pi, fx.beeped);
  }
  EXPECT_GE(good, kTrials - 2) << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(NoiseRates, OwnerFindingNoiseTest,
                         ::testing::Values(0.02, 0.05, 0.10));

TEST(OwnerFinding, ValidatesShapes) {
  Rng rng(7);
  const NoiselessChannel channel;
  RoundEngine engine(channel, rng, 3);
  const BeepCode code(4, 4, 1);
  const std::vector<BitString> wrong_count(2, BitString(4));
  const std::vector<BitString> ok(3, BitString(4));
  const std::vector<BitString> wrong_len(3, BitString(5));
  EXPECT_THROW((void)FindOwners(engine, code, wrong_count, wrong_count),
               std::invalid_argument);
  EXPECT_THROW((void)FindOwners(engine, code, ok, wrong_len),
               std::invalid_argument);
}

// --- differential test against the per-party reference ---------------------

// The owner phase as specified, one party at a time: each party keeps its
// received word as a BitString and scans every codeword for the nearest
// one.  FindOwners must match it round for round and draw for draw.
OwnerFindingResult ReferenceFindOwners(RoundEngine& engine,
                                       const BeepCode& code,
                                       const std::vector<BitString>& pi_view,
                                       const std::vector<BitString>& beeped) {
  const auto n = static_cast<int>(engine.num_parties());
  const auto chunk_len = static_cast<std::size_t>(code.chunk_len());
  std::vector<BitString> book;
  for (std::uint64_t m = 0; m <= code.next_token(); ++m) {
    book.push_back(code.Encode(m));
  }
  std::vector<int> turn(n, 0);
  std::vector<std::vector<std::uint8_t>> claimed(
      n, std::vector<std::uint8_t>(chunk_len, 0));
  OwnerFindingResult result;
  result.owners.assign(n, std::vector<int>(chunk_len, -1));

  engine.SetPhase("owner-finding");
  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  std::vector<BitString> received(n);
  for (int l = 0; l < static_cast<int>(chunk_len) + n; ++l) {
    std::vector<BitString> words(n);
    for (int i = 0; i < n; ++i) {
      if (turn[i] != i) continue;
      std::uint64_t message = code.next_token();
      for (std::size_t j = 0; j < chunk_len; ++j) {
        if (beeped[i][j] && pi_view[i][j] && claimed[i][j] == 0) {
          message = j;
          break;
        }
      }
      words[i] = book[message];
    }
    for (BitString& word : received) word.Truncate(0);
    for (std::size_t t = 0; t < code.codeword_length(); ++t) {
      std::fill(beeps.begin(), beeps.end(), 0);
      for (int i = 0; i < n; ++i) {
        if (!words[i].empty() && words[i][t]) SetPackedBit(beeps, i, true);
      }
      const std::span<const std::uint64_t> round_bits =
          engine.RoundWords(beeps);
      for (int i = 0; i < n; ++i) {
        received[i].PushBack(PackedBit(round_bits, i));
      }
    }
    for (int i = 0; i < n; ++i) {
      if (turn[i] >= n) continue;
      std::uint64_t sigma = 0;
      std::size_t best = book[0].HammingDistance(received[i]);
      for (std::uint64_t m = 1; m < book.size(); ++m) {
        const std::size_t d = book[m].HammingDistance(received[i]);
        if (d < best) {
          best = d;
          sigma = m;
        }
      }
      if (sigma == code.next_token()) {
        ++turn[i];
      } else {
        claimed[i][sigma] = 1;
        result.owners[i][sigma] = turn[i];
      }
    }
  }
  return result;
}

enum class Noise { kNoiseless, kCorrelated, kIndependent, kUp, kDown, kBurst };

// A fresh channel per run: the burst channel carries hidden state.
std::unique_ptr<Channel> MakeChannel(Noise noise) {
  switch (noise) {
    case Noise::kNoiseless:
      return std::make_unique<NoiselessChannel>();
    case Noise::kCorrelated:
      return std::make_unique<CorrelatedNoisyChannel>(0.1);
    case Noise::kIndependent:
      return std::make_unique<IndependentNoisyChannel>(0.1);
    case Noise::kUp:
      return std::make_unique<OneSidedUpChannel>(0.1);
    case Noise::kDown:
      return std::make_unique<OneSidedDownChannel>(0.1);
    case Noise::kBurst:
      return std::make_unique<BurstNoisyChannel>(0.02, 0.4, 0.05, 0.3);
  }
  return nullptr;
}

// Everything a run leaves behind.
struct OwnerRun {
  std::vector<std::vector<int>> owners;
  std::int64_t rounds = 0;
  std::map<std::string, std::int64_t> phases;
  std::array<std::uint64_t, 4> rng_state{};
};

template <typename Find>
OwnerRun RunOwners(Find find, Noise noise, const BeepCode& code,
                   const std::vector<BitString>& views,
                   const std::vector<BitString>& beeped, std::uint64_t seed) {
  const std::unique_ptr<Channel> channel = MakeChannel(noise);
  Rng rng(seed);
  RoundEngine engine(*channel, rng, static_cast<std::int64_t>(views.size()));
  OwnerRun run;
  run.owners = find(engine, code, views, beeped).owners;
  run.rounds = engine.rounds_used();
  run.phases = engine.phase_rounds();
  run.rng_state = rng.SaveState();
  return run;
}

// Runs the reference and FindOwners on `seeds` seeded fixtures: per-party
// views that disagree in a few bits (as they do after independent noise)
// and beep densities from sparse to dense.
void ExpectMatchesReference(Noise noise, int n, int chunk, int factor,
                            int seeds) {
  const BeepCode code(chunk, factor, 0x5eedbee9 + chunk);
  constexpr std::array<double, 3> kDensities = {0.02, 0.1, 0.4};
  for (int s = 0; s < seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(1000 * n + 10 * chunk + s);
    Rng fixture_rng(seed);
    const OwnerFixture fx =
        RandomFixture(n, chunk, kDensities[s % 3], fixture_rng);
    std::vector<BitString> views(n, fx.pi);
    for (BitString& view : views) {
      for (int m = 0; m < chunk; ++m) {
        if (fixture_rng.Bernoulli(0.02)) view.Set(m, !view[m]);
      }
    }
    const OwnerRun reference =
        RunOwners(ReferenceFindOwners, noise, code, views, fx.beeped, seed);
    const OwnerRun packed =
        RunOwners(FindOwners, noise, code, views, fx.beeped, seed);
    const std::string where = "n=" + std::to_string(n) +
                              " chunk=" + std::to_string(chunk) +
                              " factor=" + std::to_string(factor) +
                              " seed=" + std::to_string(seed);
    EXPECT_EQ(packed.rounds, reference.rounds) << where;
    EXPECT_EQ(packed.phases, reference.phases) << where;
    EXPECT_EQ(packed.rng_state, reference.rng_state) << where;
    EXPECT_TRUE(packed.owners == reference.owners) << where;
    if (::testing::Test::HasFailure()) return;
  }
}

struct DiffCell {
  std::string name;
  Noise noise;
  int n;
};

std::ostream& operator<<(std::ostream& os, const DiffCell& cell) {
  return os << cell.name;
}

class OwnerFindingDiffTest : public ::testing::TestWithParam<DiffCell> {};

TEST_P(OwnerFindingDiffTest, MatchesPerPartyReference) {
  // Factor 10 gives 70-bit codewords at chunk 32: two words per codeword.
  const DiffCell& cell = GetParam();
  for (const int chunk : {8, 32}) {
    for (const int factor : {6, 10}) {
      ExpectMatchesReference(cell.noise, cell.n, chunk, factor, kDiffSeeds);
      if (HasFailure()) return;
    }
  }
}

std::vector<DiffCell> DiffCells() {
  const std::array<std::pair<const char*, Noise>, 6> channels = {{
      {"noiseless", Noise::kNoiseless},
      {"correlated", Noise::kCorrelated},
      {"independent", Noise::kIndependent},
      {"up", Noise::kUp},
      {"down", Noise::kDown},
      {"burst", Noise::kBurst},
  }};
  std::vector<DiffCell> cells;
  for (const auto& [channel, noise] : channels) {
    for (const int n : {1, 63, 64, 65, 130}) {
      cells.push_back({std::string(channel) + "_n" + std::to_string(n),
                       noise, n});
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(
    Channels, OwnerFindingDiffTest, ::testing::ValuesIn(DiffCells()),
    [](const ::testing::TestParamInfo<DiffCell>& cell_info) {
      return cell_info.param.name;
    });

TEST(OwnerFindingDiff, MatchesPerPartyReferenceAtE1Shape) {
  // e1_rewind_correlated's owner phase: n = 128, chunk = 128; factor 10
  // makes the codewords 90 bits.
  for (const int factor : {6, 10}) {
    ExpectMatchesReference(Noise::kCorrelated, 128, 128, factor, kDiffSeeds);
  }
}

// Odd parties hear the complement of every codeword round past the first
// 64, so their received words share the first packed word with the even
// parties' and differ in every later one.  Assumes the engine runs only
// the owner phase, whose iterations are word_len rounds each.  It changes
// what parties hear, so it is built as rewriting per-party bits.
class SplitTailEngine : public RoundEngine {
 public:
  SplitTailEngine(const Channel& channel, Rng& rng, std::int64_t n,
                  std::size_t word_len)
      : RoundEngine(channel, rng, n, /*rewrites_bits=*/true),
        word_len_(word_len) {}

  std::span<const std::uint64_t> RoundWords(
      std::span<const std::uint64_t> beep_words) override {
    const auto t = static_cast<std::size_t>(rounds_used()) % word_len_;
    const std::span<const std::uint64_t> bits =
        RoundEngine::RoundWords(beep_words);
    heard_.assign(bits.begin(), bits.end());
    if (t >= BitString::kWordBits) {
      for (std::uint64_t& word : heard_) word ^= 0xaaaaaaaaaaaaaaaaULL;
      heard_.back() &= TailWordMask(num_parties());
    }
    return heard_;
  }

 private:
  std::size_t word_len_;
  std::vector<std::uint64_t> heard_;
};

TEST(OwnerFindingDiff, SplitTailEngineDeclinesSharedRounds) {
  const NoiselessChannel channel;
  Rng rng(8);
  const SplitTailEngine engine(channel, rng, 70, 150);
  EXPECT_FALSE(engine.shares_rounds());
}

TEST(OwnerFindingDiff, PartiesAgreeingOnlyInTheFirstWordDecodeApart) {
  // Factor 30 at chunk 8 gives 150-bit codewords: the 86 bits past the
  // first word outweigh it, so odd parties decode other messages than
  // even ones, and a decode reused on the first word alone would show.
  const int n = 70;
  const int chunk = 8;
  const BeepCode code(chunk, 30, 3);
  const NoiselessChannel channel;
  Rng fixture_rng(8);
  const OwnerFixture fx = RandomFixture(n, chunk, 0.1, fixture_rng);
  const std::vector<BitString> views = SharedView(fx.pi, n);
  std::vector<OwnerFindingResult> results;
  for (const bool reference : {true, false}) {
    Rng rng(9);
    SplitTailEngine engine(channel, rng, n, code.codeword_length());
    results.push_back(
        reference ? ReferenceFindOwners(engine, code, views, fx.beeped)
                  : FindOwners(engine, code, views, fx.beeped));
  }
  EXPECT_NE(results[0].owners[0], results[0].owners[1]);
  EXPECT_EQ(results[1].owners, results[0].owners);
}

// Every party hears the complement of every round, so each received word
// is the complement of the codeword sent.  Its nearest codeword is never
// the one sent: a decode that trusted the speaker's message would show.
// It changes what parties hear, so it is built as rewriting per-party
// bits.
class ComplementEngine : public RoundEngine {
 public:
  ComplementEngine(const Channel& channel, Rng& rng, std::int64_t n)
      : RoundEngine(channel, rng, n, /*rewrites_bits=*/true) {}

  std::span<const std::uint64_t> RoundWords(
      std::span<const std::uint64_t> beep_words) override {
    const std::span<const std::uint64_t> bits =
        RoundEngine::RoundWords(beep_words);
    heard_.assign(bits.begin(), bits.end());
    for (std::uint64_t& word : heard_) word = ~word;
    heard_.back() &= TailWordMask(num_parties());
    return heard_;
  }

 private:
  std::vector<std::uint64_t> heard_;
};

// The shared-draw twin: every listener hears 1 exactly when nobody beeps.
// It draws a bit per round so that the draw counts are compared too.
class InvertingChannel final : public SharedDrawChannel {
 public:
  [[nodiscard]] bool SharedOutcome(std::int64_t num_beepers,
                                   Rng& rng) const override {
    (void)rng.Bit();
    return num_beepers == 0;
  }
  [[nodiscard]] std::string name() const override { return "inverting"; }
};

TEST(OwnerFindingDiff, WrongHintsMatchThePerPartyReference) {
  // The complement engine runs the per-party path, the inverting channel
  // the shared one.  Chunk 32 at factor 10 gives 70-bit codewords.
  for (const int n : {5, 70}) {
    for (const int chunk : {8, 32}) {
      const BeepCode code(chunk, 10, 0x5eedbee9 + chunk);
      Rng fixture_rng(static_cast<std::uint64_t>(100 * n + chunk));
      const OwnerFixture fx = RandomFixture(n, chunk, 0.1, fixture_rng);
      const std::vector<BitString> views = SharedView(fx.pi, n);
      for (const bool shared : {false, true}) {
        const std::string where = "n=" + std::to_string(n) +
                                  " chunk=" + std::to_string(chunk) +
                                  (shared ? " shared" : " per-party");
        std::vector<OwnerRun> runs;
        for (const bool reference : {true, false}) {
          const NoiselessChannel noiseless;
          const InvertingChannel inverting;
          Rng rng(17);
          std::unique_ptr<RoundEngine> engine =
              shared ? std::make_unique<RoundEngine>(inverting, rng, n)
                     : std::make_unique<ComplementEngine>(noiseless, rng, n);
          ASSERT_EQ(engine->shares_rounds(), shared) << where;
          const OwnerFindingResult found =
              reference ? ReferenceFindOwners(*engine, code, views, fx.beeped)
                        : FindOwners(*engine, code, views, fx.beeped);
          if (!reference) {
            EXPECT_GT(found.full_scans, 0) << where;
          }
          OwnerRun run;
          run.owners = found.owners;
          run.rounds = engine->rounds_used();
          run.phases = engine->phase_rounds();
          run.rng_state = rng.SaveState();
          runs.push_back(std::move(run));
        }
        EXPECT_EQ(runs[1].rounds, runs[0].rounds) << where;
        EXPECT_EQ(runs[1].phases, runs[0].phases) << where;
        EXPECT_EQ(runs[1].rng_state, runs[0].rng_state) << where;
        EXPECT_TRUE(runs[1].owners == runs[0].owners) << where;
      }
    }
  }
}

}  // namespace
}  // namespace noisybeeps
