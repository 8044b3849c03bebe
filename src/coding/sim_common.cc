#include "coding/sim_common.h"

#include <algorithm>
#include <bit>
#include <span>

#include "coding/chunk_sim.h"
#include "fault/injection.h"
#include "util/math.h"
#include "util/require.h"

namespace noisybeeps::internal {
namespace {

// Commits a chunk attempt whose candidate bits SimulateChunkInPlace already
// appended to the transcripts: appends its recorded beeps and owners to
// every party's state.  When the attempt has no owner phase, owners extend
// with -1 (kDownOnly needs none).
void CommitAttempt(CommitState& state, const ChunkAttempt& attempt) {
  const int n = state.num_parties();
  NB_REQUIRE(static_cast<int>(attempt.beeped.size()) == n,
             "attempt party count mismatch");
  const std::size_t chunk_len = attempt.beeped.front().size();
  for (int i = 0; i < n; ++i) {
    state.beeped[i].Append(attempt.beeped[i]);
    if (attempt.owners.empty()) {
      state.owners[i].insert(state.owners[i].end(), chunk_len, -1);
    } else {
      state.owners[i].insert(state.owners[i].end(), attempt.owners[i].begin(),
                             attempt.owners[i].end());
    }
  }
}

// Truncates every party's state to `len` rounds.  On a rewind only the
// transcripts have grown past `len`; the beeps and owners are already that
// long.
void TruncateTo(CommitState& state, std::size_t len) {
  for (int i = 0; i < state.num_parties(); ++i) {
    NB_REQUIRE(len <= state.beeped[i].size(),
               "verified prefix longer than committed transcript");
    state.committed[i].Truncate(len);
    state.beeped[i].Truncate(len);
    state.owners[i].resize(len);
  }
}

// For scheduled (broadcast-like) protocols: fills every party's owner
// records for chunk rounds [start, start + chunk_len) straight from the
// pre-assigned schedule, in place of Algorithm 1's owner-finding phase.
void InjectScheduleOwners(ChunkAttempt& attempt,
                          const std::vector<int>& schedule, int start) {
  const std::size_t chunk_len = attempt.candidate.front().size();
  NB_REQUIRE(start >= 0 &&
                 static_cast<std::size_t>(start) + chunk_len <=
                     schedule.size(),
             "chunk extends past the owner schedule");
  attempt.owners.assign(attempt.candidate.size(), std::vector<int>());
  for (auto& per_party : attempt.owners) {
    per_party.assign(schedule.begin() + start,
                     schedule.begin() + start + chunk_len);
  }
}

// Validates a schedule against a protocol: size == length, owners in
// range, and in every round only the scheduled owner ever beeps (checked
// by replaying the reference execution).  Throws on violation.
void RequireValidSchedule(const Protocol& protocol,
                          const std::vector<int>& schedule) {
  NB_REQUIRE(static_cast<int>(schedule.size()) == protocol.length(),
             "owner schedule must cover every protocol round");
  const int n = protocol.num_parties();
  BitString pi;
  for (int m = 0; m < protocol.length(); ++m) {
    NB_REQUIRE(schedule[m] >= 0 && schedule[m] < n,
               "schedule owner out of range");
    for (int i = 0; i < n; ++i) {
      const bool beeps = protocol.party(i).ChooseBeep(pi);
      NB_REQUIRE(!beeps || i == schedule[m],
                 "party beeps in a round it does not own: the protocol is "
                 "not scheduled");
    }
    pi.PushBack(protocol.party(schedule[m]).ChooseBeep(pi));
  }
}

// Runs one binary-search audit over the full committed transcript and
// truncates every party's state to party 0's verified prefix, which it
// returns (the scheme's working view of progress).  Each party finds its
// first violation from its recorded beeps.
std::size_t Audit(CommitState& state, RoundEngine& engine,
                  const RewindSimOptions& options, int flag_reps,
                  DivergenceTracker& tracker) {
  const std::size_t len = state.committed.front().size();
  if (len == 0) return 0;
  const int n = state.num_parties();
  std::vector<std::size_t> first_violation(n);
  for (int i = 0; i < n; ++i) {
    first_violation[i] =
        FirstViolationFromBeeps(i, state.beeped[i], state.committed[i],
                                state.owners[i], options.regime);
  }
  engine.SetPhase("audit");
  const std::vector<std::size_t> verified = BinarySearchVerifiedPrefix(
      engine, first_violation, len, flag_reps, options.flag_rule);
  tracker.Observe(verified, "audit", engine.rounds_used());
  // All parties truncate to the SAME length (party 0's verified prefix):
  // the orchestration keeps per-party transcript lengths equal, and under
  // a correlated channel the verified lengths coincide anyway.  A party
  // whose own verdict differed simply carries its divergent content
  // forward, as it would in a desynchronized real execution.
  TruncateTo(state, verified[0]);
  return verified[0];
}

}  // namespace

std::vector<std::size_t> AllFirstViolations(const Protocol& protocol,
                                            const CommitState& state,
                                            std::size_t from,
                                            NoiseRegime regime) {
  const int n = state.num_parties();
  std::vector<std::size_t> result(n);
  for (int i = 0; i < n; ++i) {
    result[i] = FirstViolation(protocol, i, state.committed[i],
                               state.owners[i], regime, from);
  }
  return result;
}

SimulationResult RunChunkLoop(const Protocol& protocol, const Channel& channel,
                              const FaultPlan& faults, Rng& rng,
                              const RewindSimulator& scheme,
                              std::int64_t max_rounds,
                              const AuditSchedule* audits) {
  const int n = protocol.num_parties();
  const int T = protocol.length();
  const RewindSimOptions& options = scheme.options();
  const int base_chunk = scheme.EffectiveChunkLen(n);
  const int rep_factor = scheme.EffectiveRepFactor(n);
  const int flag_reps = scheme.EffectiveFlagReps(n);
  if (options.scheduled()) {
    RequireValidSchedule(protocol, options.owner_schedule);
  }

  FaultyRoundEngine engine(channel, rng, n, faults);
  CommitState state(n);
  DivergenceTracker tracker;
  // With a pre-assigned owner schedule there is nothing to find; the
  // owner-finding phase (and its beep code) is skipped entirely.
  const bool find_owners =
      options.regime == NoiseRegime::kTwoSided && !options.scheduled();

  std::int64_t commits = 0;
  int start = 0;
  bool exhausted = false;
  for (;;) {
    if (start == T && audits == nullptr) break;
    if (engine.rounds_used() > max_rounds) {
      exhausted = true;
      break;
    }
    if (start == T) {
      // The final gate: audit at maximal strength; pass iff the whole
      // transcript survives.
      const int level =
          CeilLog2(static_cast<std::uint64_t>(commits < 2 ? 2 : commits)) + 2;
      start = static_cast<int>(Audit(state, engine, options,
                                     audits->base + level * audits->slope,
                                     tracker));
      if (start == T) break;
      continue;
    }

    const int chunk_len = std::min(base_chunk, T - start);
    const BeepCode* code =
        find_owners ? &scheme.OwnerCode(chunk_len) : nullptr;
    ChunkAttempt attempt =
        SimulateChunkInPlace(protocol, state.committed, start, chunk_len,
                             rep_factor, code, engine);
    if (options.scheduled()) {
      InjectScheduleOwners(attempt, options.owner_schedule, start);
    }
    tracker.Observe(attempt.candidate, "chunk-sim", engine.rounds_used());
    if (code != nullptr) {
      tracker.Observe(attempt.owners, "owner-finding", engine.rounds_used());
    }

    // Verification: each party checks the candidate extension against the
    // beeps it recorded while simulating it (and its owned 1s), then the
    // flags are OR'd noisily.
    std::vector<std::uint8_t> flags(n, 0);
    for (int i = 0; i < n; ++i) {
      const std::span<const int> owners =
          attempt.owners.empty() ? std::span<const int>()
                                 : std::span<const int>(attempt.owners[i]);
      const std::size_t violation =
          FirstViolationFromBeeps(i, attempt.beeped[i], attempt.candidate[i],
                                  owners, options.regime);
      flags[i] = violation < attempt.candidate[i].size() ? 1 : 0;
    }
    engine.SetPhase("verify-flags");
    const std::vector<std::uint64_t> verdict =
        CommunicateFlags(engine, flags, flag_reps, options.flag_rule);
    tracker.Observe(verdict, n, "verify-flags", engine.rounds_used());

    // Commit/rewind follows party 0's verdict (see sim_common.h on
    // control-flow synchronization).
    if (PackedBit(verdict, 0)) {
      TruncateTo(state, static_cast<std::size_t>(start));
      continue;
    }
    CommitAttempt(state, attempt);
    start += chunk_len;
    ++commits;
    if (audits == nullptr) continue;
    // Escalating audits: a level-l audit after every 2^l-th commit.
    const int top_level =
        std::countr_zero(static_cast<std::uint64_t>(commits));
    for (int l = 1; l <= top_level; ++l) {
      start = static_cast<int>(Audit(state, engine, options,
                                     audits->base + l * audits->slope,
                                     tracker));
    }
  }

  SimulationResult result;
  result.transcripts = std::move(state.committed);
  result.owners = std::move(state.owners);
  result.outputs.reserve(n);
  for (int i = 0; i < n; ++i) {
    // On budget exhaustion the committed transcript may be short; pad with
    // zeros so output functions see a full-length transcript.
    BitString pi = result.transcripts[i];
    while (static_cast<int>(pi.size()) < T) pi.PushBack(false);
    result.outputs.push_back(protocol.party(i).ComputeOutput(pi));
  }
  result.noisy_rounds_used = engine.rounds_used();
  result.phase_rounds = engine.phase_rounds();
  result.verdict = ComputeVerdict(result.transcripts, T, exhausted);
  tracker.Export(result.verdict);
  return result;
}

}  // namespace noisybeeps::internal
