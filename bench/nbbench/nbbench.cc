// nbbench: one (workload, pass) of the end-to-end benchmark per process.
//
//   nbbench --workload=NAME --spec="task=... sim=... n=..." --seed=S --pass=P
//           --seconds=T [--trace]
//
// run.py (next to this file) is the benchmark's command: it starts one
// nbbench process per (workload, pass), one at a time, and aggregates.  The
// workload seed is an argument; the JobSpec seed is FNV-1a("S|NAME|P"), so
// the program only ever sees the generated instances.
//
// Plain and traced runs build every trial exactly as service::RunJob does
// (MakeWorkload / MakeChannel / MakeSimulator under ResilientTrials with the
// TrialPointAdapter), one ResilientTrials call per trial so the loop can stop
// after `--seconds`.  Consecutive calls share one parent Rng, so the first k
// trials are RunJob's first k trials: after the timed loop the process runs
// RunJob on the first kCheckTrials and prints both fingerprints.  A traced
// run therefore also proves that tracing left every result unchanged.
//
// --trace wraps the Channel and the Protocol handed to Simulate in
// forwarding decorators that count every call and time one in
// kSampleEvery, then replays the public layer functions at the workload's
// shape and measures the tracing's own cost on matched trials.  Wall time
// is measured with steady_clock and never reaches a fingerprint.  The timed
// loop moves the process to the next allowed CPU before every trial (see
// CpuRotation).  Output is JSON lines on stdout, the result last; nothing
// is written to files.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel.h"
#include "coding/beep_code.h"
#include "coding/chunk_sim.h"
#include "coding/hierarchical_sim.h"
#include "coding/owner_finding.h"
#include "coding/rewind_sim.h"
#include "coding/sim_common.h"
#include "coding/verification.h"
#include "fault/injection.h"
#include "resilience/checkpoint.h"
#include "resilience/resilient_trials.h"
#include "service/protocol.h"
#include "service/workload.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/rng.h"

namespace {

using noisybeeps::BitString;
using noisybeeps::Channel;
using noisybeeps::FaultPlan;
using noisybeeps::Party;
using noisybeeps::PartyOutput;
using noisybeeps::Protocol;
using noisybeeps::Rng;
using noisybeeps::SimulationResult;
using noisybeeps::Simulator;
using noisybeeps::service::JobSpec;
using noisybeeps::service::TrialPoint;

// Trials whose RunJob fingerprint every process checks (and run.py pins).
constexpr int kCheckTrials = 3;
// A traced call is timed when its per-layer counter is a multiple of this:
// timing every ChooseBeep more than doubles a repetition trial.
constexpr std::int64_t kSampleEvery = 64;
// Repetitions per layer-replay measurement; the median is reported.
constexpr int kLayerReps = 9;
// Plain/traced trial pairs per traced process for trace.overhead_pct.
constexpr int kOverheadPairs = 2;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- CPU rotation ------------------------------------------------------------

// Pins the process to each of the CPUs it may run on in turn.  On a shared
// host another tenant can slow one CPU's core for seconds to minutes while
// the others run at full speed, and the scheduler would leave a
// single-threaded process on the slow one for its whole pass.  Taking the
// CPUs in turn, one per trial, gives every CPU its share of the trials, so
// the fastest trials of a run are ones that met a free core.  Every move
// starts a trial with cold private caches, the same on every commit.  The
// destructor restores the CPU set the process started with.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      (void)sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --- JSON output -------------------------------------------------------------

class JsonLine {
 public:
  explicit JsonLine(const std::string& kind) { Str("kind", kind); }
  JsonLine& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  JsonLine& Int(const std::string& key, std::int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Num(const std::string& key, double value) {
    return Raw(key, noisybeeps::FormatDouble(value));
  }
  JsonLine& Raw(const std::string& key, const std::string& json) {
    text_ += (text_.empty() ? "{\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  void Print() const {
    std::fputs((text_ + "}\n").c_str(), stdout);
  }

 private:
  std::string text_;
};

std::string Hex(std::uint64_t value) {
  return "0x" + noisybeeps::FormatHex64(value);
}

// --- tracing -----------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = 0;  // 0 = root
  std::int64_t trial = 0;
};

// Call counts and sampled time for one layer boundary.
struct LayerTally {
  std::int64_t calls = 0;
  std::int64_t sampled = 0;
  std::int64_t sampled_ns = 0;

  // Total time, scaled up from the sampled calls.
  [[nodiscard]] double EstimatedNs() const {
    return sampled == 0 ? 0.0
                        : static_cast<double>(sampled_ns) *
                              static_cast<double>(calls) /
                              static_cast<double>(sampled);
  }
};

// Spans and tallies of one process.  Trial and simulate spans are kept for
// every trial; sampled leaf spans only up to kMaxLeafSpans, so memory stays
// bounded on the repetition workload (33k sampled calls per trial).
class Tracer {
 public:
  static constexpr int kMaxLeafSpans = 4096;

  Tracer() : origin_ns_(NowNs()), pair_ns_(CalibrateClockPair()) {}

  LayerTally channel;
  LayerTally protocol;

  void SetTrial(std::int64_t trial) { trial_ = trial; }
  // Opens a span; sampled calls become children of the latest one opened.
  int Begin(const char* name, int parent) {
    spans_.push_back(Span{name, NowNs() - origin_ns_, 0,
                          static_cast<int>(spans_.size()) + 1, parent, trial_});
    leaf_parent_ = spans_.back().id;
    return leaf_parent_;
  }
  void End(int id) {
    spans_[static_cast<std::size_t>(id - 1)].end_ns = NowNs() - origin_ns_;
  }

  // Records one sampled call that ran in [start, end).
  void Sample(LayerTally& tally, const char* name, std::int64_t start,
              std::int64_t end) {
    ++tally.sampled;
    tally.sampled_ns += std::max<std::int64_t>(0, end - start - pair_ns_);
    if (leaf_spans_left_ > 0) {
      --leaf_spans_left_;
      spans_.push_back(Span{name, start - origin_ns_, end - origin_ns_,
                            static_cast<int>(spans_.size()) + 1, leaf_parent_,
                            trial_});
    }
  }

  void ResetTallies() {
    channel = {};
    protocol = {};
    spans_.clear();
    leaf_spans_left_ = kMaxLeafSpans;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  // The cost of one back-to-back clock read pair, subtracted from every
  // sampled call: the median over blocks of 1000 pairs.
  static std::int64_t CalibrateClockPair() {
    std::vector<std::int64_t> per_block;
    for (int block = 0; block < 9; ++block) {
      std::int64_t total = 0;
      for (int i = 0; i < 1000; ++i) {
        const std::int64_t a = NowNs();
        total += NowNs() - a;
      }
      per_block.push_back(total / 1000);
    }
    std::nth_element(per_block.begin(), per_block.begin() + 4, per_block.end());
    return per_block[4];
  }

  std::int64_t origin_ns_;
  std::int64_t pair_ns_;
  std::vector<Span> spans_;
  std::int64_t trial_ = 0;
  int leaf_parent_ = 0;
  int leaf_spans_left_ = kMaxLeafSpans;
};

// Counts the call; times it when the count is a multiple of kSampleEvery.
class SampledCall {
 public:
  SampledCall(Tracer& tracer, LayerTally& tally, const char* name)
      : tracer_(tracer), tally_(tally), name_(name) {
    if (++tally_.calls % kSampleEvery == 0) start_ = NowNs();
  }
  ~SampledCall() {
    if (start_ >= 0) tracer_.Sample(tally_, name_, start_, NowNs());
  }
  SampledCall(const SampledCall&) = delete;
  SampledCall& operator=(const SampledCall&) = delete;

 private:
  Tracer& tracer_;
  LayerTally& tally_;
  const char* name_;
  std::int64_t start_ = -1;
};

class TracedChannel final : public Channel {
 public:
  TracedChannel(const Channel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void Deliver(std::int64_t num_beepers, std::span<std::uint8_t> received,
               Rng& rng) const override {
    const SampledCall call(tracer_, tracer_.channel, "channel.deliver");
    inner_.Deliver(num_beepers, received, rng);
  }
  void DeliverWords(std::int64_t num_beepers,
                    std::span<std::uint64_t> received,
                    std::int64_t num_parties, noisybeeps::WordMode mode,
                    Rng& rng) const override {
    const SampledCall call(tracer_, tracer_.channel, "channel.deliver");
    inner_.DeliverWords(num_beepers, received, num_parties, mode, rng);
  }
  [[nodiscard]] bool is_correlated() const override {
    return inner_.is_correlated();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const Channel& inner_;
  Tracer& tracer_;
};

class TracedParty final : public Party {
 public:
  TracedParty(const Party& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] bool ChooseBeep(const BitString& prefix) const override {
    const SampledCall call(tracer_, tracer_.protocol, "protocol.choose_beep");
    return inner_.ChooseBeep(prefix);
  }
  [[nodiscard]] PartyOutput ComputeOutput(const BitString& pi) const override {
    return inner_.ComputeOutput(pi);
  }

 private:
  const Party& inner_;
  Tracer& tracer_;
};

class TracedProtocol final : public Protocol {
 public:
  TracedProtocol(const Protocol& inner, Tracer& tracer) : inner_(inner) {
    parties_.reserve(static_cast<std::size_t>(inner.num_parties()));
    for (int i = 0; i < inner.num_parties(); ++i) {
      parties_.emplace_back(inner.party(i), tracer);
    }
  }

  [[nodiscard]] int num_parties() const override {
    return inner_.num_parties();
  }
  [[nodiscard]] int length() const override { return inner_.length(); }
  [[nodiscard]] const Party& party(int i) const override {
    return parties_[static_cast<std::size_t>(i)];
  }

 private:
  const Protocol& inner_;
  std::vector<TracedParty> parties_;
};

// --- the workload's scheme parameters ----------------------------------------

// The resolved parameters of the workload's chunked simulator at its n:
// what the layer replay calls the layer functions with, and what turns the
// verify-flags round count into a chunk-attempt count.
struct SchemeShape {
  bool chunked = false;       // rewind / hierarchical: chunk loop runs
  bool hierarchical = false;  // escalating audits run
  noisybeeps::NoiseRegime regime = noisybeeps::NoiseRegime::kTwoSided;
  noisybeeps::FlagRule rule = noisybeeps::FlagRule::kMajority;
  int chunk_len = 0;
  int rep_factor = 0;
  int flag_reps = 0;
  int audit_reps = 0;  // a level-1 audit
  std::optional<noisybeeps::BeepCode> code;  // two-sided owner phase only
};

SchemeShape ShapeOf(const Simulator& sim, int n) {
  using noisybeeps::HierarchicalSimulator;
  using noisybeeps::RewindSimOptions;
  using noisybeeps::RewindSimulator;
  SchemeShape shape;
  const auto* hierarchical = dynamic_cast<const HierarchicalSimulator*>(&sim);
  const auto* rewind = dynamic_cast<const RewindSimulator*>(&sim);
  if (hierarchical == nullptr && rewind == nullptr) return shape;
  const RewindSimOptions options =
      hierarchical != nullptr ? hierarchical->options().base
                              : rewind->options();
  const RewindSimulator flat(options);
  shape.chunked = true;
  shape.hierarchical = hierarchical != nullptr;
  shape.regime = options.regime;
  shape.rule = options.flag_rule;
  shape.chunk_len = flat.EffectiveChunkLen(n);
  shape.rep_factor = flat.EffectiveRepFactor(n);
  shape.flag_reps = flat.EffectiveFlagReps(n);
  if (hierarchical != nullptr) {
    const int base = hierarchical->options().audit_flag_base > 0
                         ? hierarchical->options().audit_flag_base
                         : shape.flag_reps;
    shape.audit_reps = base + hierarchical->options().audit_flag_slope;
  }
  if (options.regime == noisybeeps::NoiseRegime::kTwoSided &&
      !options.scheduled()) {
    shape.code.emplace(shape.chunk_len, options.code_length_factor,
                       options.code_seed +
                           static_cast<std::uint64_t>(shape.chunk_len));
  }
  return shape;
}

// --- one trial, as service::RunJob runs it -----------------------------------

struct Job {
  JobSpec spec;
  FaultPlan faults;
  std::unique_ptr<Channel> channel;
  std::unique_ptr<Simulator> sim;
  SchemeShape shape;

  explicit Job(const JobSpec& job_spec)
      : spec(job_spec),
        faults(spec.ParsedFaultPlan()),
        channel(noisybeeps::service::MakeChannel(spec.channel, spec.eps)),
        sim(noisybeeps::service::MakeSimulator(spec.sim, spec.task,
                                               static_cast<int>(spec.n))),
        shape(ShapeOf(*sim, static_cast<int>(spec.n))) {}
};

// Per-process sums; run.py adds them over passes and divides by trials.
struct TrialTally {
  std::vector<double> trial_ms;
  std::int64_t trial_ns = 0;
  std::int64_t simulate_ns = 0;
  std::int64_t failed = 0;
  double blowup = 0;
  std::int64_t chunks_needed = 0;
  std::int64_t chunks_attempted = 0;
  std::map<std::string, std::int64_t> phase_rounds;
  // Majority transcripts of the first kCheckTrials trials.  The results
  // fingerprint holds only verdicts and round counts, which on a workload
  // whose chunks all commit first time do not depend on the seed at all.
  std::string transcripts;
};

class TrialRunner {
 public:
  // `tracer` null = a plain run.
  TrialRunner(const Job& job, Tracer* tracer)
      : job_(job), tracer_(tracer) {
    if (tracer_ != nullptr) traced_channel_.emplace(*job_.channel, *tracer_);
  }

  // The body of service::RunJob's trial lambda, timed.
  TrialPoint Run(Rng& rng) {
    const std::int64_t start = NowNs();
    int trial_span = 0;
    if (tracer_ != nullptr) {
      tracer_->SetTrial(trials_);
      trial_span = tracer_->Begin("trial", 0);
    }
    const noisybeeps::service::Workload workload =
        noisybeeps::service::MakeWorkload(job_.spec.task,
                                          static_cast<int>(job_.spec.n), rng);
    const std::int64_t sim_start = NowNs();
    SimulationResult result;
    if (tracer_ != nullptr) {
      const int simulate_span = tracer_->Begin("simulate", trial_span);
      const TracedProtocol protocol(*workload.protocol, *tracer_);
      result = job_.sim->Simulate(protocol, *traced_channel_, job_.faults, rng);
      tracer_->End(simulate_span);
    } else {
      result = job_.sim->Simulate(*workload.protocol, *job_.channel,
                                  job_.faults, rng);
    }
    const std::int64_t sim_end = NowNs();
    TrialPoint point;
    point.success = !result.budget_exhausted() && workload.judge(result);
    point.status = static_cast<std::uint8_t>(result.verdict.status);
    point.rounds = result.noisy_rounds_used;
    point.blowup = static_cast<double>(result.noisy_rounds_used) /
                   std::max(1, workload.protocol->length());
    for (const auto& [phase, count] : result.phase_rounds) {
      point.phases[phase] += count;
    }
    if (tracer_ != nullptr) tracer_->End(trial_span);
    const std::int64_t end = NowNs();

    ++trials_;
    tally_.trial_ms.push_back(static_cast<double>(end - start) / 1e6);
    tally_.trial_ns += end - start;
    tally_.simulate_ns += sim_end - sim_start;
    if (!point.success ||
        result.verdict.status == noisybeeps::SimulationStatus::kFailed) {
      ++tally_.failed;
    }
    tally_.blowup += point.blowup;
    for (const auto& [phase, count] : point.phases) {
      tally_.phase_rounds[phase] += count;
    }
    const SchemeShape& shape = job_.shape;
    const auto flag_rounds = point.phases.find("verify-flags");
    if (shape.chunked && flag_rounds != point.phases.end()) {
      const int length = workload.protocol->length();
      tally_.chunks_needed += (length + shape.chunk_len - 1) / shape.chunk_len;
      tally_.chunks_attempted += flag_rounds->second / shape.flag_reps;
    }
    if (trials_ <= kCheckTrials) {
      const BitString& transcript = result.verdict.majority_transcript;
      noisybeeps::resilience::AppendU64(tally_.transcripts, transcript.size());
      for (const std::uint64_t word : transcript.words()) {
        noisybeeps::resilience::AppendU64(tally_.transcripts, word);
      }
    }
    return point;
  }

  // Forgets the warm-up trial.
  void Reset() {
    trials_ = 0;
    tally_ = {};
    if (tracer_ != nullptr) tracer_->ResetTallies();
  }

  [[nodiscard]] const TrialTally& tally() const { return tally_; }

 private:
  const Job& job_;
  Tracer* tracer_;
  std::optional<TracedChannel> traced_channel_;
  std::int64_t trials_ = 0;
  TrialTally tally_;
};

// --- layer replay ------------------------------------------------------------

// Median over kLayerReps repetitions of `body`, which runs `calls` calls
// per repetition; returns nanoseconds per call.
template <typename Body>
double MedianNsPerCall(int calls, Body&& body) {
  std::vector<double> per_call;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    const std::int64_t start = NowNs();
    for (int i = 0; i < calls; ++i) body();
    per_call.push_back(static_cast<double>(NowNs() - start) / calls);
  }
  std::nth_element(per_call.begin(), per_call.begin() + kLayerReps / 2,
                   per_call.end());
  return per_call[kLayerReps / 2];
}

// Times the public layer functions directly at the workload's shape.  A
// layer the workload's scheme never calls reports 0.
void ReplayLayers(const Job& job, std::uint64_t replay_seed) {
  using noisybeeps::FaultyRoundEngine;
  using noisybeeps::internal::CommitState;
  const int n = static_cast<int>(job.spec.n);
  const SchemeShape& shape = job.shape;
  Rng rng(replay_seed);
  const noisybeeps::service::Workload workload =
      noisybeeps::service::MakeWorkload(job.spec.task, n, rng);
  const Protocol& protocol = *workload.protocol;
  FaultyRoundEngine engine(*job.channel, rng, n, job.faults);
  std::map<std::string, double> metrics = {
      {"ecc.decode_ns", 0},          {"coding.find_owners_ms", 0},
      {"coding.simulate_chunk_ms", 0}, {"coding.first_violations_ms", 0},
      {"coding.state_copy_ms", 0},   {"coding.flags_us", 0},
      {"coding.audit_ms", 0},        {"fault.round_ns", 0},
      {"channel.deliver_words_ns", 0}};

  std::vector<std::uint8_t> beeps(static_cast<std::size_t>(n), 0);
  beeps[1] = 1;
  metrics["fault.round_ns"] =
      MedianNsPerCall(4096, [&] { (void)engine.Round(beeps); });
  std::vector<std::uint64_t> words(noisybeeps::WordsForParties(n));
  metrics["channel.deliver_words_ns"] = MedianNsPerCall(4096, [&] {
    job.channel->DeliverWords(1, words, n,
                              noisybeeps::WordMode::kStreamCompat, rng);
  });

  if (shape.chunked) {
    const std::vector<BitString> empty(static_cast<std::size_t>(n));
    const int chunk_len = std::min(shape.chunk_len, protocol.length());
    std::optional<noisybeeps::ChunkAttempt> attempt;
    metrics["coding.simulate_chunk_ms"] = MedianNsPerCall(1, [&] {
      attempt = noisybeeps::SimulateChunk(protocol, empty, 0, chunk_len,
                                          shape.rep_factor, nullptr, engine);
    }) / 1e6;
    if (shape.code.has_value() && chunk_len == shape.code->chunk_len()) {
      const noisybeeps::BeepCode& code = *shape.code;
      metrics["coding.find_owners_ms"] = MedianNsPerCall(1, [&] {
        (void)noisybeeps::FindOwners(engine, code, attempt->candidate,
                                     attempt->beeped);
      }) / 1e6;
      BitString received = code.Encode(code.next_token());
      for (std::size_t b = 0; b < received.size(); ++b) {
        if (rng.Bernoulli(job.spec.eps)) received.Set(b, !received[b]);
      }
      metrics["ecc.decode_ns"] =
          MedianNsPerCall(1000, [&] { (void)code.Decode(received); });
    }

    // A full-length committed state, as the last chunk of a trial sees it.
    const SimulationResult full =
        job.sim->Simulate(protocol, *job.channel, job.faults, rng);
    CommitState state(n);
    state.committed = full.transcripts;
    state.owners = full.owners;
    std::vector<std::size_t> first_violation;
    metrics["coding.first_violations_ms"] = MedianNsPerCall(1, [&] {
      first_violation = noisybeeps::internal::AllFirstViolations(
          protocol, state, 0, shape.regime);
    }) / 1e6;
    metrics["coding.state_copy_ms"] = MedianNsPerCall(1, [&] {
      const CommitState copy = state;
      (void)copy;
    }) / 1e6;
    const std::vector<std::uint8_t> flags(static_cast<std::size_t>(n), 0);
    metrics["coding.flags_us"] = MedianNsPerCall(16, [&] {
      (void)noisybeeps::CommunicateFlags(engine, flags, shape.flag_reps,
                                         shape.rule);
    }) / 1e3;
    if (shape.hierarchical) {
      const std::size_t len = state.committed.front().size();
      metrics["coding.audit_ms"] = MedianNsPerCall(1, [&] {
        (void)noisybeeps::BinarySearchVerifiedPrefix(
            engine, first_violation, len, shape.audit_reps, shape.rule);
      }) / 1e6;
    }
  }

  JsonLine line("layers");
  for (const auto& [name, value] : metrics) line.Num(name, value);
  line.Print();
}

// The tracing's own cost, from matched samples: pair k runs one trial seed
// plain and traced, back to back, in alternating order.  Returns each pair's
// traced ÷ plain trial time.
std::vector<double> TraceOverheadRatios(const Job& job,
                                        const std::string& stream) {
  Tracer tracer;
  TrialRunner traced(job, &tracer);
  TrialRunner plain(job, nullptr);
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const std::uint64_t seed = noisybeeps::resilience::Fnv1a64(
        stream + "|overhead|" + std::to_string(pair));
    Rng traced_rng(seed);
    Rng plain_rng(seed);
    if (pair % 2 == 0) (void)traced.Run(traced_rng);
    (void)plain.Run(plain_rng);
    if (pair % 2 == 1) (void)traced.Run(traced_rng);
  }
  std::vector<double> ratios;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const auto k = static_cast<std::size_t>(pair);
    ratios.push_back(traced.tally().trial_ms[k] / plain.tally().trial_ms[k]);
  }
  return ratios;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string json = "[";
  for (const double value : values) {
    json += (json.size() > 1 ? ", " : "") + noisybeeps::FormatDouble(value);
  }
  return json + "]";
}

// --- the timed run -----------------------------------------------------------

// The kernel's high-water mark of this process image.  getrusage's
// ru_maxrss would not do: it keeps the parent's pre-exec footprint, so a
// child of run.py reads as at least the interpreter's size.
double PeakRssMb() {
  // NBLINT(io-seam-discipline): reads a kernel counter, writes nothing
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return static_cast<double>(std::stoll(line.substr(6))) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void PrintSpans(const Tracer& tracer) {
  for (const Span& span : tracer.spans()) {
    JsonLine("span")
        .Str("name", span.name)
        .Int("id", span.id)
        .Int("parent", span.parent)
        .Int("trial", span.trial)
        .Int("start_ns", span.start_ns)
        .Int("end_ns", span.end_ns)
        .Print();
  }
}

int Main(int argc, char** argv) {
  const std::int64_t process_start = NowNs();
  noisybeeps::Flags flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const std::string spec_text = flags.GetString("spec", "");
  const std::int64_t seed = flags.GetInt("seed", 1);
  const std::int64_t pass = flags.GetInt("pass", 0);
  const double seconds = flags.GetDouble("seconds", 1.0);
  const bool trace = flags.GetBool("trace", false);
  if (!flags.UnconsumedFlags().empty() || workload.empty() ||
      spec_text.empty() || !(seconds >= 0.0)) {
    std::fputs(
        "usage: nbbench --workload=NAME --spec=\"task=... sim=...\" "
        "--seed=S --pass=P --seconds=T [--trace]\n",
        stderr);
    return 2;
  }

  // The workload seed reaches the program only through these derived seeds.
  const std::string stream = std::to_string(seed) + "|" + workload + "|" +
                             std::to_string(pass);
  JobSpec spec =
      noisybeeps::service::ParseRequestLine("id=" + workload + " " + spec_text)
          .spec;
  spec.seed = noisybeeps::resilience::Fnv1a64(stream);
  spec.trials = kCheckTrials;
  noisybeeps::service::ValidateJobSpec(spec);
  const Job job(spec);

  std::optional<Tracer> tracer;
  if (trace) tracer.emplace();
  TrialRunner runner(job, tracer ? &*tracer : nullptr);
  {
    Rng warmup(noisybeeps::resilience::Fnv1a64(stream + "|warmup"));
    (void)runner.Run(warmup);
    runner.Reset();
  }
  const std::int64_t setup_ns = NowNs() - process_start;

  // One ResilientTrials call per trial, all splitting one parent Rng:
  // trial t gets the same generator as trial t of a single RunJob call.
  Rng rng(spec.seed);
  const noisybeeps::service::TrialPointAdapter adapter;
  noisybeeps::resilience::ResilienceOptions options;
  options.num_workers = 1;
  const auto body = [&](int, Rng& trial_rng) { return runner.Run(trial_rng); };
  const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t loop_ns = 0;
  std::int64_t trials = 0;
  std::string encoded;
  std::string check_encoded;
  {
    CpuRotation rotation;
    while (trials < kCheckTrials || loop_ns < budget_ns) {
      rotation.Next();
      const std::int64_t start = NowNs();
      const noisybeeps::resilience::RunOutput<TrialPoint> out =
          noisybeeps::resilience::ResilientTrials(1, rng, body, adapter,
                                                  options);
      loop_ns += NowNs() - start;
      encoded += adapter.Encode(out.results.front());
      if (++trials == kCheckTrials) check_encoded = encoded;
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const TrialTally& tally = runner.tally();

  noisybeeps::service::JobExecution serial;
  serial.num_workers = 1;
  const noisybeeps::service::JobResult check =
      noisybeeps::service::RunJob(spec, serial);

  std::vector<double> overhead_ratios;
  if (tracer) {
    ReplayLayers(job, noisybeeps::resilience::Fnv1a64(stream + "|layers"));
    overhead_ratios = TraceOverheadRatios(job, stream);
    PrintSpans(*tracer);
  }
  JsonLine result("result");
  result.Str("workload", workload)
      .Int("pass", pass)
      .Int("trials", trials)
      .Int("failed", tally.failed)
      .Str("fingerprint", Hex(noisybeeps::resilience::Fnv1a64(check_encoded)))
      .Str("runjob_fingerprint", Hex(check.results_fingerprint))
      .Str("transcript_digest",
           Hex(noisybeeps::resilience::Fnv1a64(tally.transcripts)))
      .Num("setup_s", static_cast<double>(setup_ns) / 1e9)
      .Num("loop_s", static_cast<double>(loop_ns) / 1e9)
      .Num("peak_rss_mb", peak_rss_mb)
      .Raw("trial_ms", JsonArray(tally.trial_ms));
  if (tracer) {
    std::string phases = "{";
    for (const auto& [phase, rounds] : tally.phase_rounds) {
      phases += (phases.size() > 1 ? ", \"" : "\"") + phase +
                "\": " + std::to_string(rounds);
    }
    result.Int("trial_ns", tally.trial_ns)
        .Int("simulate_ns", tally.simulate_ns)
        .Int("channel_calls", tracer->channel.calls)
        .Num("channel_ns", tracer->channel.EstimatedNs())
        .Int("choose_beep_calls", tracer->protocol.calls)
        .Num("choose_beep_ns", tracer->protocol.EstimatedNs())
        .Num("blowup", tally.blowup)
        .Int("chunks_needed", tally.chunks_needed)
        .Int("chunks_attempted", tally.chunks_attempted)
        .Raw("phase_rounds", phases + "}")
        .Raw("overhead_ratios", JsonArray(overhead_ratios));
  }
  result.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fputs(("nbbench: " + std::string(e.what()) + "\n").c_str(), stderr);
    return 1;
  }
}
