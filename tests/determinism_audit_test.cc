// The determinism race-audit: the library's own race detector.
//
// ParallelTrials documents that its results are bit-identical for EVERY
// worker count (determinism by construction: one Rng split per trial, one
// write slot per trial).  This audit holds the claim to account on the
// five representative workloads of the reproduction -- repetition
// simulation, chunk simulation, the hierarchical A_l scheme, owner
// finding, and the InputSet_n progress measure -- by fingerprinting every
// trial's full result at 1, 2, and hardware_concurrency workers and
// asserting bit-identical fingerprints.  A rewind run under a five-party
// FaultPlan rides along, pinning the fault layer to the same contract
// (babbler streams derive from the plan seed, never from shared state).
// Any cross-trial Rng sharing,
// shared mutable channel state, or racy result write shows up here as a
// fingerprint mismatch (and under TSan as a reported race; CI runs both).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "channel/correlated.h"
#include "failpoint/fail_plan.h"
#include "failpoint/fs.h"
#include "resilience/checkpoint.h"
#include "resilience/resilient_trials.h"
#include "coding/beep_code.h"
#include "coding/chunk_sim.h"
#include "coding/hierarchical_sim.h"
#include "coding/owner_finding.h"
#include "coding/repetition_sim.h"
#include "coding/rewind_sim.h"
#include "analysis/progress_measure.h"
#include "channel/independent.h"
#include "fault/fault_plan.h"
#include "fault/injection.h"
#include "protocol/round_engine.h"
#include "resilience/clock.h"
#include "service/protocol.h"
#include "service/service.h"
#include "tasks/input_set.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

// FNV-1a over 64-bit words: cheap, deterministic, and sensitive to every
// bit of the mixed-in values.
class Fingerprint {
 public:
  void Mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((v >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void MixDouble(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof bits);
    Mix(bits);
  }
  void MixBits(const BitString& bits) {
    Mix(bits.size());
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      word = (word << 1) | static_cast<std::uint64_t>(bits[i]);
      if (i % 64 == 63) {
        Mix(word);
        word = 0;
      }
    }
    Mix(word);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::uint64_t FingerprintSimulation(const SimulationResult& result) {
  Fingerprint fp;
  for (const BitString& t : result.transcripts) fp.MixBits(t);
  for (const auto& per_party : result.owners) {
    fp.Mix(per_party.size());
    for (int owner : per_party) fp.Mix(static_cast<std::uint64_t>(owner));
  }
  for (const PartyOutput& out : result.outputs) {
    fp.Mix(out.size());
    for (std::uint64_t word : out) fp.Mix(word);
  }
  fp.Mix(static_cast<std::uint64_t>(result.noisy_rounds_used));
  fp.Mix(result.budget_exhausted() ? 1 : 0);
  fp.Mix(static_cast<std::uint64_t>(result.verdict.status));
  for (int a : result.verdict.agreement) {
    fp.Mix(static_cast<std::uint64_t>(a));
  }
  fp.Mix(static_cast<std::uint64_t>(result.verdict.majority_size));
  fp.MixBits(result.verdict.majority_transcript);
  for (char c : result.verdict.first_divergent_phase) {
    fp.Mix(static_cast<std::uint64_t>(c));
  }
  fp.Mix(static_cast<std::uint64_t>(result.verdict.first_divergence_round));
  for (const auto& [phase, rounds] : result.phase_rounds) {
    for (char c : phase) fp.Mix(static_cast<std::uint64_t>(c));
    fp.Mix(static_cast<std::uint64_t>(rounds));
  }
  return fp.value();
}

constexpr int kTrials = 24;

// Every workload returns one fingerprint per trial plus, as a final
// element, the parent Rng's next output -- so a workload whose scheduling
// leaked into the parent stream also fails the audit.
template <typename Body>
std::vector<std::uint64_t> RunWorkload(std::uint64_t seed, Body&& body,
                                       int num_workers) {
  Rng rng(seed);
  std::vector<std::uint64_t> prints =
      ParallelTrials(kTrials, rng, body, num_workers);
  prints.push_back(rng.NextU64());
  return prints;
}

std::vector<int> WorkerCounts() {
  int hc = static_cast<int>(std::thread::hardware_concurrency());
  if (hc < 2) hc = 2;  // still exercises the threaded path
  return {1, 2, hc};
}

// Runs `body` at 1, 2, and hardware_concurrency workers and asserts
// bit-identical per-trial fingerprints.
template <typename Body>
void AuditWorkload(const char* name, std::uint64_t seed, Body&& body) {
  const std::vector<std::uint64_t> serial = RunWorkload(seed, body, 1);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(kTrials) + 1) << name;
  for (int workers : WorkerCounts()) {
    const std::vector<std::uint64_t> parallel =
        RunWorkload(seed, body, workers);
    EXPECT_EQ(parallel, serial)
        << name << ": results differ between 1 and " << workers
        << " workers -- the determinism-by-construction contract is broken";
  }
}

TEST(DeterminismAudit, RepetitionSimulation) {
  AuditWorkload("repetition-sim", 101, [](int, Rng& rng) {
    const InputSetInstance instance = SampleInputSet(8, rng);
    const auto protocol = MakeInputSetProtocol(instance);
    const CorrelatedNoisyChannel channel(0.1);
    const RepetitionSimulator sim;
    return FingerprintSimulation(sim.Simulate(*protocol, channel, rng));
  });
}

TEST(DeterminismAudit, ChunkSimulationWithOwnerPhase) {
  AuditWorkload("chunk-sim", 202, [](int, Rng& rng) {
    constexpr int kParties = 6;
    constexpr int kChunk = 8;
    const InputSetInstance instance = SampleInputSet(kParties, rng);
    const auto protocol = MakeInputSetProtocol(instance);
    const CorrelatedNoisyChannel channel(0.1);
    const BeepCode code(kChunk, 6, 11);
    RoundEngine engine(channel, rng, kParties);
    const std::vector<BitString> committed(kParties, BitString());
    const ChunkAttempt attempt =
        SimulateChunk(*protocol, committed, 0, kChunk, 3, &code, engine);
    Fingerprint fp;
    for (const BitString& c : attempt.candidate) fp.MixBits(c);
    for (const BitString& b : attempt.beeped) fp.MixBits(b);
    for (const auto& per_party : attempt.owners) {
      for (int owner : per_party) fp.Mix(static_cast<std::uint64_t>(owner));
    }
    fp.Mix(static_cast<std::uint64_t>(engine.rounds_used()));
    return fp.value();
  });
}

TEST(DeterminismAudit, HierarchicalSimulation) {
  AuditWorkload("hierarchical-sim", 303, [](int, Rng& rng) {
    const InputSetInstance instance = SampleInputSet(6, rng);
    const auto protocol = MakeInputSetProtocol(instance);
    const CorrelatedNoisyChannel channel(0.05);
    const HierarchicalSimulator sim;
    return FingerprintSimulation(sim.Simulate(*protocol, channel, rng));
  });
}

TEST(DeterminismAudit, SimulatorsSharedAcrossWorkers) {
  // One rewind and one hierarchical simulator per run, shared by every
  // trial and worker of it, as a job shares its simulator.  Chunk 5 does
  // not divide T = 12, so every trial runs two chunk lengths, each with
  // its own owner code.  Fresh simulators per worker count, so that the
  // threaded runs start from nothing shared.
  RewindSimOptions options;
  options.chunk_len = 5;
  HierarchicalSimOptions hierarchical_options;
  hierarchical_options.base = options;
  const auto run = [&](int workers) {
    const RewindSimulator rewind(options);
    const HierarchicalSimulator hierarchical(hierarchical_options);
    return RunWorkload(
        808,
        [&](int, Rng& rng) {
          const InputSetInstance instance = SampleInputSet(6, rng);
          const auto protocol = MakeInputSetProtocol(instance);
          const CorrelatedNoisyChannel channel(0.05);
          Fingerprint fp;
          fp.Mix(FingerprintSimulation(
              rewind.Simulate(*protocol, channel, rng)));
          fp.Mix(FingerprintSimulation(
              hierarchical.Simulate(*protocol, channel, rng)));
          return fp.value();
        },
        workers);
  };
  const std::vector<std::uint64_t> serial = run(1);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(kTrials) + 1);
  for (int workers : WorkerCounts()) {
    EXPECT_EQ(run(workers), serial) << workers << " workers";
  }
}

TEST(DeterminismAudit, FaultedRewindSimulation) {
  // The fault layer must not break the bit-identity contract: the babbler
  // streams derive from the plan seed alone and every other fault kind is
  // deterministic, so a faulted workload audits exactly like a clean one.
  // Windows are bounded so the run terminates even with five misbehavers.
  AuditWorkload("faulted-rewind-sim", 707, [](int, Rng& rng) {
    const InputSetInstance instance = SampleInputSet(8, rng);
    const auto protocol = MakeInputSetProtocol(instance);
    const CorrelatedNoisyChannel channel(0.05);
    FaultPlan plan(99);
    plan.CrashStop(1, 400)
        .Babbler(2, 0, 200, 0.3)
        .DeafReceiver(0, 50, 120)
        .Sleepy(3, 10, 60)
        .StuckBeeper(4, 5, 25);
    RewindSimOptions options;
    options.max_rounds = 20000;  // bounded: babbler runs can be expensive
    const RewindSimulator sim(options);
    return FingerprintSimulation(sim.Simulate(*protocol, channel, plan, rng));
  });
}

TEST(DeterminismAudit, OwnerFinding) {
  AuditWorkload("owner-finding", 404, [](int, Rng& rng) {
    constexpr int kParties = 6;
    constexpr int kChunk = 10;
    // Random ground truth: each party beeps ~30% of rounds; the shared
    // transcript view is the OR.
    std::vector<BitString> beeped(kParties);
    BitString pi;
    for (int m = 0; m < kChunk; ++m) {
      bool any = false;
      for (int i = 0; i < kParties; ++i) {
        const bool bit = rng.Bernoulli(0.3);
        beeped[i].PushBack(bit);
        any = any || bit;
      }
      pi.PushBack(any);
    }
    const std::vector<BitString> pi_view(kParties, pi);
    const CorrelatedNoisyChannel channel(0.05);
    const BeepCode code(kChunk, 6, 5);
    RoundEngine engine(channel, rng, kParties);
    const OwnerFindingResult result =
        FindOwners(engine, code, pi_view, beeped);
    Fingerprint fp;
    for (const auto& per_party : result.owners) {
      fp.Mix(per_party.size());
      for (int owner : per_party) fp.Mix(static_cast<std::uint64_t>(owner));
    }
    fp.Mix(static_cast<std::uint64_t>(engine.rounds_used()));
    fp.Mix(OwnersValid(result, pi, beeped) ? 1 : 0);
    return fp.value();
  });
}

TEST(DeterminismAudit, InputSetProgressMeasure) {
  AuditWorkload("progress-measure", 505, [](int, Rng& rng) {
    constexpr int kParties = 4;
    constexpr int kReps = 2;
    const auto family = MakeInputSetFamily(kParties, kReps);
    // The paper's setting: sample x, corrupt the noiseless transcript with
    // one-sided-up noise, and evaluate the exact progress measure.
    InputSetInstance instance;
    for (int i = 0; i < kParties; ++i) {
      instance.inputs.push_back(
          static_cast<int>(rng.UniformInt(2 * kParties)));
    }
    const auto protocol =
        MakeRepeatedInputSetProtocol(instance, kReps);
    BitString pi = ReferenceTranscript(*protocol);
    constexpr double kEps = 1.0 / 3.0;
    for (std::size_t m = 0; m < pi.size(); ++m) {
      if (!pi[m] && rng.Bernoulli(kEps)) pi.Set(m, true);
    }
    const RoundClasses classes =
        ClassifyRounds(*family, instance.inputs, pi);
    const ZetaResult zeta = ComputeZeta(*family, instance.inputs, pi, kEps);
    Fingerprint fp;
    fp.Mix(classes.a0);
    fp.Mix(classes.a0_prime);
    fp.Mix(classes.a_multi);
    for (std::size_t a : classes.a_single) fp.Mix(a);
    fp.Mix(classes.consistent ? 1 : 0);
    fp.MixDouble(Log2ProbPiGivenX(classes, kEps));
    fp.MixDouble(zeta.zeta);
    fp.MixDouble(zeta.log2_zeta);
    for (int g : zeta.good) fp.Mix(static_cast<std::uint64_t>(g));
    fp.Mix(zeta.event_good ? 1 : 0);
    return fp.value();
  });
}

// Chaos extension of the audit: a checkpointed sweep under a FaultingFs
// fail plan.  All checkpoint I/O happens on the engine's main thread
// between batches, so fault hit indices -- and therefore the injected
// fault SEQUENCE, not just the maths -- must be bit-identical at every
// worker count.  Same seed + same plan ==> same results, same report
// fingerprint, same per-spec fire counts.
TEST(DeterminismAudit, FaultingFsChaosWorkload) {
  namespace stdfs = std::filesystem;
  using resilience::ResilienceOptions;
  using resilience::ResilientTrials;
  using resilience::RunOutput;

  struct U64Adapter {
    [[nodiscard]] std::string Encode(const std::uint64_t& v) const {
      std::string out;
      resilience::AppendU64(out, v);
      return out;
    }
    [[nodiscard]] std::uint64_t Decode(std::string_view bytes) const {
      resilience::ByteReader reader(bytes);
      return reader.U64();
    }
    [[nodiscard]] resilience::TrialAssessment Assess(
        const std::uint64_t&) const {
      return {};
    }
  };
  const auto body = [](int t, Rng& rng) {
    return rng.NextU64() ^ static_cast<std::uint64_t>(t);
  };
  // Every degrade kind at once: a short write, a rejected rename, a
  // refused write, and latency on every sync.
  const failpoint::FailPlan plan = failpoint::FailPlan::Parse(
      "enospc:write@1:0.5;fail:rename@2;fail:write@4;latency:sync@0-*:3",
      909);

  std::vector<std::uint64_t> first_results;
  std::uint64_t first_fingerprint = 0;
  std::vector<std::int64_t> first_fires;
  for (int workers : {1, 2, 4}) {
    const std::string path =
        (stdfs::path(::testing::TempDir()) /
         ("chaos_audit_" + std::to_string(workers) + ".nbckpt"))
            .string();
    stdfs::remove(path);
    failpoint::FaultingFs fault_fs(failpoint::RealFs::Instance(), plan);
    ResilienceOptions opts;
    opts.checkpoint_path = path;
    opts.checkpoint_every = 2;
    opts.config_hash = resilience::Fnv1a64("chaos-audit");
    opts.num_workers = workers;
    opts.fs = &fault_fs;
    Rng rng(808);
    const RunOutput<std::uint64_t> run =
        ResilientTrials(10, rng, body, U64Adapter{}, opts);
    EXPECT_GT(fault_fs.TotalInjected(), 0) << workers;  // not vacuous
    if (workers == 1) {
      first_results = run.results;
      first_fingerprint = run.report.Fingerprint();
      first_fires = fault_fs.SpecFires();
      continue;
    }
    EXPECT_EQ(run.results, first_results)
        << workers << " workers: chaos perturbed the results";
    EXPECT_EQ(run.report.Fingerprint(), first_fingerprint) << workers;
    EXPECT_EQ(fault_fs.SpecFires(), first_fires)
        << workers << " workers: the injected fault sequence diverged";
    stdfs::remove(path);
  }
}

// The service determinism audit (PR 8): a fixed request sequence --
// duplicates that must hit the cache, a burst past the admission queue
// that must shed, a tight deadline that must time out -- replayed at 1,
// 2, and 4 ResilientTrials workers over fresh cache directories must
// produce byte-identical reply LINES and an identical deterministic
// ServiceReport fingerprint.  Worker count is an execution detail; the
// service's answers (and its refusals) are part of the contract.
TEST(DeterminismAudit, ServiceWorkload) {
  namespace stdfs = std::filesystem;

  const auto spec = [](std::uint64_t seed) {
    service::JobSpec s;
    s.task = "input_set";
    s.channel = "correlated";
    s.sim = "repetition";
    s.n = 8;
    s.eps = 0.05;
    s.trials = 9;
    s.seed = seed;
    return s;
  };

  std::vector<std::string> first_lines;
  std::uint64_t first_fingerprint = 0;
  for (int workers : {1, 2, 4}) {
    const stdfs::path dir = stdfs::path(::testing::TempDir()) /
                            ("service_audit_" + std::to_string(workers));
    stdfs::remove_all(dir);
    stdfs::create_directories(dir);

    resilience::FakeClock clock;
    service::ServiceOptions options;
    options.cache_dir = dir.string();
    options.clock = &clock;
    options.max_queue = 2;
    options.num_workers = workers;
    options.checkpoint_every = 4;
    service::TrialService trial_service(options);

    std::vector<std::string> lines;
    const auto submit = [&](const std::string& id,
                            const service::JobSpec& job) {
      if (std::optional<service::Reply> immediate =
              trial_service.Submit({id, job})) {
        lines.push_back(service::FormatReplyLine(*immediate));
      }
    };

    // A recompute, its cache-hit duplicate, and a second distinct job.
    submit("a1", spec(21));
    submit("a2", spec(21));
    // The queue is now full (a1 and a2 are waiting): this burst sheds.
    submit("burst1", spec(77));
    submit("burst2", spec(78));
    for (service::Reply& reply : trial_service.RunQueued()) {
      lines.push_back(service::FormatReplyLine(reply));
    }
    // A deadline shorter than the cost hint is shed deterministically.
    service::JobSpec tight = spec(79);
    tight.deadline_millis = 1;
    submit("tight", tight);
    // Round two drains the now-nonempty cache path.
    submit("a3", spec(21));
    submit("b1", spec(99));
    for (service::Reply& reply : trial_service.RunQueued()) {
      lines.push_back(service::FormatReplyLine(reply));
    }

    const std::uint64_t fingerprint = trial_service.report().Fingerprint();
    if (workers == 1) {
      first_lines = lines;
      first_fingerprint = fingerprint;
      // Sanity: the sequence exercised every verdict it was built for.
      const service::ServiceReport report = trial_service.report();
      EXPECT_EQ(report.cache_hits, 2);
      EXPECT_EQ(report.shed_queue_full, 2);
      EXPECT_EQ(report.shed_deadline, 1);
      EXPECT_EQ(report.recomputed, 2);
      continue;
    }
    EXPECT_EQ(lines, first_lines)
        << workers << " workers: the service's answers diverged";
    EXPECT_EQ(fingerprint, first_fingerprint) << workers;
  }
}

// The audit's own sanity check: a body that (wrongly) reads shared mutable
// state WOULD produce different fingerprints -- so the equality assertions
// above are not vacuous.  We verify the fingerprints differ across trials
// (the workloads are genuinely stochastic).
TEST(DeterminismAudit, FingerprintsVaryAcrossTrials) {
  Rng rng(606);
  const std::vector<std::uint64_t> prints = ParallelTrials(
      kTrials, rng,
      [](int, Rng& r) {
        const InputSetInstance instance = SampleInputSet(8, r);
        const auto protocol = MakeInputSetProtocol(instance);
        const CorrelatedNoisyChannel channel(0.1);
        const RepetitionSimulator sim;
        return FingerprintSimulation(sim.Simulate(*protocol, channel, r));
      },
      2);
  int distinct = 0;
  for (std::size_t i = 1; i < prints.size(); ++i) {
    distinct += prints[i] != prints[0];
  }
  EXPECT_GT(distinct, 0);
}

// The word-parallel round path: a packed-word workload over the
// independent channel at a party count that straddles word boundaries,
// audited bare and again under a FaultPlan.  Same seed ==> identical
// received-word fingerprints at every worker count.
TEST(DeterminismAudit, WordParallelRounds) {
  AuditWorkload("word-parallel-rounds", 1201, [](int, Rng& rng) {
    constexpr std::int64_t kParties = 200;  // 3 words + a 8-bit tail
    const IndependentNoisyChannel channel(0.05);
    RoundEngine engine(channel, rng, kParties);
    std::vector<std::uint64_t> beeps(WordsForParties(kParties), 0);
    Fingerprint fp;
    for (int r = 0; r < 32; ++r) {
      // A stochastic beep pattern, masked to the valid lanes.
      for (std::uint64_t& w : beeps) w = rng.NextU64();
      beeps.back() &= TailWordMask(kParties);
      for (std::uint64_t w : engine.RoundWords(beeps)) fp.Mix(w);
    }
    fp.Mix(static_cast<std::uint64_t>(engine.rounds_used()));
    return fp.value();
  });
}

TEST(DeterminismAudit, FaultedWordParallelRounds) {
  // The fault layer's word path rides the same contract: babbler streams
  // derive from the plan seed, crash/stuck/deaf masks are functions of
  // the round index, so a faulted word workload audits like a clean one.
  AuditWorkload("faulted-word-rounds", 1301, [](int, Rng& rng) {
    constexpr std::int64_t kParties = 130;
    const IndependentNoisyChannel channel(0.05);
    FaultPlan plan(4242);
    plan.CrashStop(3, 20)
        .StuckBeeper(64, 0, 15)
        .Babbler(70, 2, 28, 0.6)
        .DeafReceiver(129, 0, 10);
    FaultyRoundEngine engine(channel, rng, kParties, plan);
    std::vector<std::uint64_t> beeps(WordsForParties(kParties), 0);
    Fingerprint fp;
    for (int r = 0; r < 32; ++r) {
      for (std::uint64_t& w : beeps) w = rng.NextU64();
      beeps.back() &= TailWordMask(kParties);
      for (std::uint64_t w : engine.RoundWords(beeps)) fp.Mix(w);
    }
    return fp.value();
  });
}

}  // namespace
}  // namespace noisybeeps
