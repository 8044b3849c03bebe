// The simulator interface: the objects Theorems 1.1 and 1.2 are about.
//
// A Simulator takes a protocol Pi designed for the NOISELESS beeping model
// and executes it over a NOISY channel, spending noisy rounds to produce,
// at every party, a reconstruction of Pi's noiseless transcript (and hence
// Pi's outputs).  The figure of merit is the blowup
//     noisy_rounds_used / Pi.length(),
// which Theorem 1.2 upper-bounds by O(log n) and Theorem 1.1 lower-bounds
// by Omega(log n) for some Pi.
//
// Simulators are written imperatively against protocol/round_engine.h; the
// distributed discipline (party i's decisions depend only on party i's
// input, local state, and the bits party i received) is maintained by code
// structure: all cross-party information flows through
// RoundEngine::RoundWords.
//
// Beyond channel noise, every simulator also accepts a FaultPlan
// (fault/fault_plan.h): a deterministic description of misbehaving parties
// (crash-stop, sleepy, stuck-beeper, babbler, deaf-receiver) injected at
// the round boundary.  The outcome is reported as a structured
// SimulationVerdict -- ok / degraded / failed with per-party agreement
// counts and majority-transcript recovery -- instead of a lone boolean.
#ifndef NOISYBEEPS_CODING_SIMULATOR_H_
#define NOISYBEEPS_CODING_SIMULATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "channel/channel.h"
#include "fault/fault_plan.h"
#include "protocol/protocol.h"

namespace noisybeeps {

// The graceful-degradation ladder.  kOk: every party reconstructed the
// same full-length transcript within budget.  kDegraded: a strict majority
// of parties still agree on one transcript (so majority-vote recovery
// works, and under a correlated channel the committed prefix is
// consistent), but some party diverged or the round budget ran out.
// kFailed: no strict majority agrees -- the execution is unrecoverable.
enum class SimulationStatus { kOk, kDegraded, kFailed };

[[nodiscard]] std::string SimulationStatusName(SimulationStatus status);

struct SimulationVerdict {
  SimulationStatus status = SimulationStatus::kOk;
  // The simulator hit its internal round budget before finishing; the
  // transcripts are then whatever was committed.
  bool budget_exhausted = false;
  // agreement[i] = number of parties (including i itself) whose final
  // transcript equals party i's.
  std::vector<int> agreement;
  // max(agreement): the size of the largest group of agreeing parties.
  int majority_size = 0;
  // The plurality transcript (ties broken toward the lexicographically
  // least): what majority-vote recovery would return.  Under a correlated
  // channel this is the consistent committed prefix.
  BitString majority_transcript;
  // The engine phase in which per-party state was first observed to
  // diverge ("" = never diverged): "chunk-sim", "owner-finding",
  // "verify-flags", "audit", or "repetition".
  std::string first_divergent_phase;
  // Noisy rounds consumed when that divergence was first observed
  // (-1 = never diverged).
  std::int64_t first_divergence_round = -1;

  [[nodiscard]] bool ok() const { return status == SimulationStatus::kOk; }
};

// Fills status / agreement / majority fields from the final per-party
// transcripts.  `full_length` is the simulated protocol's length T (a
// transcript shorter than T -- a budget-exhausted run -- cannot be kOk).
// The divergence fields are left untouched; simulators record those
// in-flight.  Precondition: transcripts is non-empty.
[[nodiscard]] SimulationVerdict ComputeVerdict(
    const std::vector<BitString>& transcripts, int full_length,
    bool budget_exhausted);

struct SimulationResult {
  // Party i's reconstruction of the noiseless transcript of Pi.  Under a
  // correlated channel all reconstructions coincide unless the simulation
  // failed.
  std::vector<BitString> transcripts;
  // Party i's view of the owner of each transcript round (-1 = no owner
  // recorded).  Only chunk-based simulators populate owners; for others
  // the vectors are empty.
  std::vector<std::vector<int>> owners;
  // g^i evaluated on party i's reconstructed transcript.
  std::vector<PartyOutput> outputs;
  // Rounds consumed on the noisy channel -- the quantity the theorems
  // bound.
  std::int64_t noisy_rounds_used = 0;
  // The structured outcome: ok / degraded / failed, agreement counts,
  // majority recovery, and first divergence (see SimulationVerdict).
  SimulationVerdict verdict;
  // Where the noisy rounds went, by phase label ("chunk-sim",
  // "owner-finding", "verify-flags", "audit", "repetition"); sums to
  // noisy_rounds_used.
  std::map<std::string, std::int64_t> phase_rounds;

  // Source-compatible accessor for the old lone failure bool (tests assert
  // this stays false at documented budgets).
  [[nodiscard]] bool budget_exhausted() const {
    return verdict.budget_exhausted;
  }

  // True iff every party reconstructed exactly `reference`.
  [[nodiscard]] bool AllMatch(const BitString& reference) const {
    for (const BitString& t : transcripts) {
      if (t != reference) return false;
    }
    return true;
  }
};

class Simulator {
 public:
  virtual ~Simulator() = default;

  // Simulates `protocol` over `channel` with `faults` injected at the
  // round boundary (an empty plan is a bit-for-bit no-op).  The protocol's
  // parties must be pure (see protocol/party.h); the channel may be
  // correlated or independent.
  [[nodiscard]] virtual SimulationResult Simulate(const Protocol& protocol,
                                                  const Channel& channel,
                                                  const FaultPlan& faults,
                                                  Rng& rng) const = 0;

  // Fault-free convenience overload.
  [[nodiscard]] SimulationResult Simulate(const Protocol& protocol,
                                          const Channel& channel,
                                          Rng& rng) const {
    return Simulate(protocol, channel, FaultPlan(), rng);
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CODING_SIMULATOR_H_
