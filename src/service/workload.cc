#include "service/workload.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "channel/burst.h"
#include "channel/collision.h"
#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/noiseless.h"
#include "channel/one_sided.h"
#include "coding/hierarchical_sim.h"
#include "coding/repetition_sim.h"
#include "coding/rewind_sim.h"
#include "resilience/resilient_trials.h"
#include "tasks/adaptive_find.h"
#include "tasks/bit_exchange.h"
#include "tasks/counting.h"
#include "tasks/input_set.h"
#include "tasks/leader_election.h"
#include "tasks/or_vector.h"
#include "tasks/random_protocol.h"
#include "util/stats.h"

namespace noisybeeps::service {

Workload MakeWorkload(const std::string& task, int n, Rng& rng) {
  if (task == "input_set") {
    auto instance = std::make_shared<InputSetInstance>(SampleInputSet(n, rng));
    Workload w;
    w.protocol = MakeInputSetProtocol(*instance);
    w.judge = [instance](const SimulationResult& r) {
      return InputSetAllCorrect(*instance, r.outputs);
    };
    return w;
  }
  if (task == "bit_exchange") {
    auto instance =
        std::make_shared<BitExchangeInstance>(SampleBitExchange(n, 8, rng));
    Workload w;
    w.protocol = MakeBitExchangeProtocol(*instance);
    w.judge = [instance](const SimulationResult& r) {
      return BitExchangeAllCorrect(*instance, r.outputs);
    };
    return w;
  }
  if (task == "leader") {
    auto instance = std::make_shared<LeaderElectionInstance>(
        SampleLeaderElection(n, 12, rng));
    Workload w;
    w.protocol = MakeLeaderElectionProtocol(*instance);
    w.judge = [instance](const SimulationResult& r) {
      return LeaderElectionAllCorrect(*instance, r.outputs);
    };
    return w;
  }
  if (task == "counting") {
    auto instance =
        std::make_shared<CountingInstance>(SampleCounting(n, 8, 9, rng));
    Workload w;
    w.protocol = MakeCountingProtocol(*instance);
    w.judge = [instance](const SimulationResult& r) {
      return CountingAllWithinFactor(*instance, r.outputs, 8.0);
    };
    return w;
  }
  if (task == "adaptive") {
    auto instance = std::make_shared<AdaptiveFindInstance>(
        SampleAdaptiveFind(n, 0.2, rng));
    Workload w;
    w.protocol = MakeAdaptiveFindProtocol(*instance);
    w.judge = [instance](const SimulationResult& r) {
      return AdaptiveFindAllCorrect(*instance, r.outputs);
    };
    return w;
  }
  if (task == "or_vector") {
    auto instance =
        std::make_shared<OrVectorInstance>(SampleOrVector(n, 2 * n, 0.1, rng));
    Workload w;
    w.protocol = MakeOrVectorProtocol(*instance);
    w.judge = [instance](const SimulationResult& r) {
      return OrVectorAllCorrect(*instance, r.outputs);
    };
    return w;
  }
  if (task == "random") {
    auto spec = std::make_shared<RandomProtocolSpec>(
        SampleRandomProtocol(n, 4 * n, 0.1, /*adaptive=*/true, rng));
    Workload w;
    w.protocol = MakeRandomProtocol(*spec);
    const std::uint64_t expected =
        TranscriptDigest(ReferenceTranscript(*w.protocol));
    w.judge = [expected](const SimulationResult& r) {
      for (const PartyOutput& out : r.outputs) {
        if (out.size() != 1 || out[0] != expected) return false;
      }
      return true;
    };
    return w;
  }
  throw std::invalid_argument("unknown task: " + task);
}

std::unique_ptr<Channel> MakeChannel(const std::string& channel, double eps) {
  if (channel == "noiseless") return std::make_unique<NoiselessChannel>();
  if (channel == "correlated") {
    return std::make_unique<CorrelatedNoisyChannel>(eps);
  }
  if (channel == "up") return std::make_unique<OneSidedUpChannel>(eps);
  if (channel == "down") return std::make_unique<OneSidedDownChannel>(eps);
  if (channel == "independent") {
    return std::make_unique<IndependentNoisyChannel>(eps);
  }
  if (channel == "burst") {
    // A quiet floor (eps/10) punctuated by 0.4-rate bursts of mean length
    // ~7 rounds entered at rate eps/10: stationary noise stays near eps/3
    // but arrives clustered.
    return std::make_unique<BurstNoisyChannel>(eps / 10, 0.4, eps / 10, 0.15);
  }
  if (channel == "collision") {
    return std::make_unique<CollisionAsSilenceChannel>(eps);
  }
  throw std::invalid_argument("unknown channel: " + channel);
}

std::unique_ptr<Simulator> MakeSimulator(const std::string& sim,
                                         const std::string& task, int n) {
  if (sim == "scheduled") {
    if (task != "bit_exchange") {
      throw std::invalid_argument(
          "sim=scheduled requires task=bit_exchange (the built-in "
          "schedule-owned workload)");
    }
    return std::make_unique<RewindSimulator>(
        RewindSimOptions::Scheduled(BitExchangeSchedule(n, 8)));
  }
  if (sim == "raw") {
    return std::make_unique<RepetitionSimulator>(
        RepetitionSimOptions{.rep_factor = 1});
  }
  if (sim == "repetition") return std::make_unique<RepetitionSimulator>();
  if (sim == "rewind") return std::make_unique<RewindSimulator>();
  if (sim == "rewind_down") {
    return std::make_unique<RewindSimulator>(RewindSimOptions::DownOnly());
  }
  if (sim == "hierarchical") return std::make_unique<HierarchicalSimulator>();
  if (sim == "hierarchical_down") {
    return std::make_unique<HierarchicalSimulator>(
        HierarchicalSimOptions::DownOnly());
  }
  throw std::invalid_argument("unknown sim: " + sim);
}

namespace {

bool Contains(const std::vector<std::string_view>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

bool IsKnownTask(const std::string& task) {
  static const std::vector<std::string_view> kTasks = {
      "input_set", "bit_exchange", "leader",  "counting",
      "adaptive",  "or_vector",    "random"};
  return Contains(kTasks, task);
}

bool IsKnownChannel(const std::string& channel) {
  static const std::vector<std::string_view> kChannels = {
      "noiseless", "correlated", "up",       "down",
      "independent", "burst",    "collision"};
  return Contains(kChannels, channel);
}

bool IsKnownSim(const std::string& sim) {
  static const std::vector<std::string_view> kSims = {
      "raw",          "repetition",        "rewind", "rewind_down",
      "hierarchical", "hierarchical_down", "scheduled"};
  return Contains(kSims, sim);
}

void ValidateJobSpec(const JobSpec& spec) {
  if (!IsKnownTask(spec.task)) {
    throw std::invalid_argument("unknown task: " + spec.task);
  }
  if (!IsKnownChannel(spec.channel)) {
    throw std::invalid_argument("unknown channel: " + spec.channel);
  }
  if (!IsKnownSim(spec.sim)) {
    throw std::invalid_argument("unknown sim: " + spec.sim);
  }
  if (spec.sim == "scheduled" && spec.task != "bit_exchange") {
    throw std::invalid_argument(
        "sim=scheduled requires task=bit_exchange (the built-in "
        "schedule-owned workload)");
  }
  if (spec.n < 2) {
    throw std::invalid_argument("n must be >= 2, got " +
                                std::to_string(spec.n));
  }
  // The named workloads instantiate per-party Protocol objects (an
  // int-indexed layer); n beyond int range needs the word-parallel round
  // substrate directly, not a service workload.
  if (spec.n > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("n too large for a protocol workload: " +
                                std::to_string(spec.n));
  }
  if (!(spec.eps >= 0.0) || !(spec.eps < 1.0)) {
    throw std::invalid_argument("eps must be in [0, 1)");
  }
  if (spec.trials < 0) {
    throw std::invalid_argument("trials must be >= 0, got " +
                                std::to_string(spec.trials));
  }
  if (spec.max_attempts < 1) {
    throw std::invalid_argument("max_attempts must be >= 1, got " +
                                std::to_string(spec.max_attempts));
  }
  if (spec.retry_backoff_millis < 0 || spec.trial_round_budget < 0 ||
      spec.trial_timeout_millis < 0 || spec.deadline_millis < 0) {
    throw std::invalid_argument(
        "retry/budget/deadline values must be >= 0");
  }
  // Plan grammars parse (throws std::invalid_argument on bad syntax)...
  const FaultPlan faults = spec.ParsedFaultPlan();
  (void)spec.ParsedFailPlan();
  // ...and the fault plan only names parties that exist.
  if (faults.MaxParty() >= spec.n) {
    throw std::invalid_argument(
        "fault plan names party " + std::to_string(faults.MaxParty()) +
        " but n=" + std::to_string(spec.n));
  }
}

std::string JobResult::EncodePayload() const {
  std::string out;
  resilience::AppendU64(out, static_cast<std::uint64_t>(trials));
  resilience::AppendU64(out, static_cast<std::uint64_t>(successes));
  for (const std::int64_t v : verdicts) {
    resilience::AppendU64(out, static_cast<std::uint64_t>(v));
  }
  resilience::AppendF64(out, mean_rounds);
  resilience::AppendF64(out, mean_blowup);
  resilience::AppendU64(out, phases.size());
  for (const auto& [phase, count] : phases) {
    resilience::AppendBytes(out, phase);
    resilience::AppendU64(out, static_cast<std::uint64_t>(count));
  }
  resilience::AppendU64(out, results_fingerprint);
  resilience::AppendU64(out, static_cast<std::uint64_t>(report.total_trials));
  resilience::AppendU64(out, static_cast<std::uint64_t>(report.completed));
  resilience::AppendU64(out, static_cast<std::uint64_t>(report.retried));
  resilience::AppendU64(out, static_cast<std::uint64_t>(report.abandoned));
  resilience::AppendU64(out, static_cast<std::uint64_t>(report.attempts));
  resilience::AppendU64(out, static_cast<std::uint64_t>(report.timeouts));
  resilience::AppendU64(out, static_cast<std::uint64_t>(report.exceptions));
  resilience::AppendU64(out,
                        static_cast<std::uint64_t>(report.degraded_verdicts));
  resilience::AppendU64(out, static_cast<std::uint64_t>(report.resumed_trials));
  resilience::AppendU64(
      out, static_cast<std::uint64_t>(report.checkpoints_written));
  resilience::AppendU64(
      out, static_cast<std::uint64_t>(report.checkpoints_quarantined));
  resilience::AppendU64(
      out, static_cast<std::uint64_t>(report.checkpoint_write_failures));
  return out;
}

JobResult JobResult::DecodePayload(std::string_view bytes) {
  resilience::ByteReader reader(bytes);
  JobResult result;
  result.trials = static_cast<std::int64_t>(reader.U64());
  result.successes = static_cast<std::int64_t>(reader.U64());
  for (std::int64_t& v : result.verdicts) {
    v = static_cast<std::int64_t>(reader.U64());
  }
  result.mean_rounds = reader.F64();
  result.mean_blowup = reader.F64();
  const std::uint64_t num_phases = reader.U64();
  for (std::uint64_t i = 0; i < num_phases; ++i) {
    const std::string phase(reader.Bytes());
    result.phases[phase] = static_cast<std::int64_t>(reader.U64());
  }
  result.results_fingerprint = reader.U64();
  result.report.total_trials = static_cast<std::int64_t>(reader.U64());
  result.report.completed = static_cast<std::int64_t>(reader.U64());
  result.report.retried = static_cast<std::int64_t>(reader.U64());
  result.report.abandoned = static_cast<std::int64_t>(reader.U64());
  result.report.attempts = static_cast<std::int64_t>(reader.U64());
  result.report.timeouts = static_cast<std::int64_t>(reader.U64());
  result.report.exceptions = static_cast<std::int64_t>(reader.U64());
  result.report.degraded_verdicts = static_cast<std::int64_t>(reader.U64());
  result.report.resumed_trials = static_cast<std::int64_t>(reader.U64());
  result.report.checkpoints_written = static_cast<std::int64_t>(reader.U64());
  result.report.checkpoints_quarantined =
      static_cast<std::int64_t>(reader.U64());
  result.report.checkpoint_write_failures =
      static_cast<std::int64_t>(reader.U64());
  if (!reader.AtEnd()) {
    throw resilience::CheckpointError("trailing bytes in job payload");
  }
  return result;
}

JobResult RunJob(const JobSpec& spec, const JobExecution& exec) {
  ValidateJobSpec(spec);
  const FaultPlan faults = spec.ParsedFaultPlan();
  const std::unique_ptr<Simulator> sim =
      MakeSimulator(spec.sim, spec.task, static_cast<int>(spec.n));

  resilience::ResilienceOptions opts;
  opts.fs = exec.fs;
  opts.clock = exec.clock;
  opts.checkpoint_path = exec.checkpoint_path;
  opts.checkpoint_every = exec.checkpoint_every;
  opts.config_hash = spec.ConfigHash();
  opts.retry.max_attempts = spec.max_attempts;
  opts.retry.base_backoff_millis = spec.retry_backoff_millis;
  opts.budget.max_rounds = spec.trial_round_budget;
  opts.budget.max_wall_millis = spec.trial_timeout_millis;
  opts.num_workers = exec.num_workers;
  opts.halt_after_checkpoints = exec.halt_after_checkpoints;
  opts.cancel = exec.cancel;
  opts.deadline_at_millis = exec.deadline_at_millis;

  Rng rng(spec.seed);
  const auto body = [&](int, Rng& trial_rng) {
    // One channel per trial: the burst channel keeps its hidden state in
    // the channel object, and a trial's noise must depend on its own rng
    // alone -- not on which trial ran before it, on which worker, or
    // before a resume.
    const std::unique_ptr<Channel> channel =
        MakeChannel(spec.channel, spec.eps);
    const Workload workload =
        MakeWorkload(spec.task, static_cast<int>(spec.n), trial_rng);
    const SimulationResult result =
        sim->Simulate(*workload.protocol, *channel, faults, trial_rng);
    TrialPoint point;
    point.success = !result.budget_exhausted() && workload.judge(result);
    point.status = static_cast<std::uint8_t>(result.verdict.status);
    point.rounds = result.noisy_rounds_used;
    point.blowup = static_cast<double>(result.noisy_rounds_used) /
                   std::max(1, workload.protocol->length());
    for (const auto& [phase, count] : result.phase_rounds) {
      point.phases[phase] += count;
    }
    return point;
  };
  const TrialPointAdapter adapter;
  const resilience::RunOutput<TrialPoint> run =
      resilience::ResilientTrials(spec.trials, rng, body, adapter, opts);

  JobResult result;
  result.trials = spec.trials;
  result.report = run.report;
  RunningStat rounds;
  RunningStat blowup;
  std::string encoded_results;
  for (const TrialPoint& point : run.results) {
    if (point.success) ++result.successes;
    ++result.verdicts[static_cast<std::size_t>(
        point.status < 3 ? point.status : 2)];
    rounds.Add(static_cast<double>(point.rounds));
    blowup.Add(point.blowup);
    for (const auto& [phase, count] : point.phases) {
      result.phases[phase] += count;
    }
    encoded_results += adapter.Encode(point);
  }
  if (!run.results.empty()) {
    result.mean_rounds = rounds.mean();
    result.mean_blowup = blowup.mean();
  }
  result.results_fingerprint = resilience::Fnv1a64(encoded_results);
  return result;
}

}  // namespace noisybeeps::service
