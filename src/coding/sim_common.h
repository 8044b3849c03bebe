// Internal helpers shared by the simulators, and the chunk loop both
// rewind-if-error simulators run.
//
// CommitState is the per-party progress of a chunked simulation: each
// party's committed reconstruction of the noiseless transcript, the bits it
// beeped in those rounds, and its owner records.  Under a correlated
// channel all per-party entries stay identical (every decision below is a
// deterministic function of shared received bits); under the independent
// channel they may diverge, which surfaces as a simulation failure in the
// caller's success metric.
//
// Control-flow synchronization: commit/rewind decisions are taken from
// party 0's decoded verdict.  Under correlated noise this is exactly the
// paper's scheme (all verdicts coincide).  Under independent noise it
// stands in for the event "the parties stayed synchronized"; a party whose
// own verdict differed carries a divergent transcript from then on, which
// is precisely how desynchronization manifests in the real protocol.
#ifndef NOISYBEEPS_CODING_SIM_COMMON_H_
#define NOISYBEEPS_CODING_SIM_COMMON_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "channel/channel.h"
#include "coding/rewind_sim.h"
#include "coding/simulator.h"
#include "coding/verification.h"
#include "protocol/protocol.h"

namespace noisybeeps::internal {

// Records the first engine phase in which per-party state stopped being
// identical -- the SimulationVerdict's "which phase first diverged"
// answer.  Simulators call Observe at each synchronization point (decoded
// chunk bits, owner records, flag verdicts, audit results); once a
// divergence is recorded all further calls are no-ops, so the steady-state
// cost is one branch.
class DivergenceTracker {
 public:
  // Observes one per-party vector of values that SHOULD agree across
  // parties.  `phase` labels the phase that produced them; `round` is the
  // engine's rounds_used() at the observation.
  template <typename T>
  void Observe(const std::vector<T>& per_party, const char* phase,
               std::int64_t round) {
    if (diverged_) return;
    for (std::size_t i = 1; i < per_party.size(); ++i) {
      if (!(per_party[i] == per_party[0])) {
        Record(phase, round);
        return;
      }
    }
  }

  // Observes one bit per party, packed 64 per word (bit i of the words is
  // party i's, as RoundEngine::RepeatRound returns them), for
  // `num_parties` parties.
  // Parties are compared with each other, not words: the tail bits past
  // num_parties are not read.
  void Observe(std::span<const std::uint64_t> packed,
               std::int64_t num_parties, const char* phase,
               std::int64_t round) {
    if (diverged_ || SharedBit(packed, num_parties).has_value()) return;
    Record(phase, round);
  }

  [[nodiscard]] bool diverged() const { return diverged_; }

  // Copies the divergence fields into a verdict (whose status/agreement
  // fields were already filled by ComputeVerdict).
  void Export(SimulationVerdict& verdict) const {
    verdict.first_divergent_phase = first_phase_;
    verdict.first_divergence_round = first_round_;
  }

 private:
  void Record(const char* phase, std::int64_t round) {
    diverged_ = true;
    first_phase_ = phase;
    first_round_ = round;
  }

  bool diverged_ = false;
  std::string first_phase_;
  std::int64_t first_round_ = -1;
};

// beeped[i][m] is what party i beeped in committed round m, recorded when
// the round was simulated: by purity, its beep function on committed[i]'s
// first m bits.  The chunk loop extends and truncates `committed`,
// `beeped` and `owners` together, so verification and audits read the
// recorded beeps instead of replaying the beep function.
struct CommitState {
  std::vector<BitString> committed;        // per-party transcripts
  std::vector<BitString> beeped;           // per-party recorded beeps
  std::vector<std::vector<int>> owners;    // per-party owner records

  explicit CommitState(int num_parties)
      : committed(num_parties), beeped(num_parties), owners(num_parties) {}

  [[nodiscard]] int num_parties() const {
    return static_cast<int>(committed.size());
  }
};

// The replay reference: FirstViolation for every party over its own
// committed transcript and owners (`beeped` is not read), ignoring
// violations before round `from`.  No simulator calls it; the benchmark's
// layer replay does.
[[nodiscard]] std::vector<std::size_t> AllFirstViolations(
    const Protocol& protocol, const CommitState& state, std::size_t from,
    NoiseRegime regime);

// The hierarchical scheme's audit schedule.  After the k-th commit it runs
// a level-l audit for every l >= 1 with 2^l dividing k; once
// every chunk is committed, a final audit at level ceil(log2(max(k,2)))+2
// gates termination.  A level-l audit uses base + l * slope flag
// repetitions.
struct AuditSchedule {
  int base = 0;
  int slope = 0;
};

// The rewind-if-error chunk loop, with the chunk parameters `scheme`
// resolves for the protocol's n.  Per chunk attempt: simulate the chunk
// straight onto the committed transcripts (with the owner phase on the
// scheme's OwnerCode when the options call for one, or the schedule's
// owners), verify it from the beeps recorded while simulating it, exchange
// flags, and on party 0's verdict either commit (append the attempt's
// beeps and owners) or rewind
// (truncate the transcripts back to the chunk's start).  With `audits`
// (the hierarchical scheme) the loop also runs the schedule's audits and
// ends at a passed final audit; without (the flat scheme) it ends at its
// last commit.  The budget of `max_rounds` is checked before every chunk
// attempt and, with `audits`, before every final audit: the flat scheme's
// last commit may overrun it without exhausting the run.  Faults are
// injected at the round boundary.
[[nodiscard]] SimulationResult RunChunkLoop(const Protocol& protocol,
                                            const Channel& channel,
                                            const FaultPlan& faults, Rng& rng,
                                            const RewindSimulator& scheme,
                                            std::int64_t max_rounds,
                                            const AuditSchedule* audits);

}  // namespace noisybeeps::internal

#endif  // NOISYBEEPS_CODING_SIM_COMMON_H_
