// The flat rewind-if-error simulator (Section D.2, without the A_l
// hierarchy): simulate a chunk, verify it, commit on a clear verdict,
// retry otherwise.
//
// Two presets realize the paper's asymmetry between the noise directions:
//
//  * kTwoSided / one-sided-up channels (Theorem 1.2's O(log n) overhead):
//    chunks of ~n rounds are simulated with Theta(log n)-fold repetition,
//    owners are computed for every 1 via Algorithm 1, and verification
//    has owners vouch for 1s while everyone polices 0s.
//
//  * kDownOnly channels (the Section 2 constant-overhead direction):
//    chunks of O(1) rounds are simulated with NO repetition and NO owner
//    phase -- a received 1 is self-certifying, and a party whose beeped 1
//    was dropped raises the flag itself.  The resulting blowup is a
//    constant independent of n, which bench_asymmetry exhibits against
//    the up-noise preset's Theta(log n).
//
// The flat scheme's per-chunk verification error is made polynomially
// small, so it is sound for protocols of length poly(n) (a union bound
// over chunks); for arbitrary lengths use HierarchicalSimulator, which
// re-audits committed history at geometrically escalating strength.
#ifndef NOISYBEEPS_CODING_REWIND_SIM_H_
#define NOISYBEEPS_CODING_REWIND_SIM_H_

#include <map>
#include <mutex>

#include "coding/beep_code.h"
#include "coding/simulator.h"
#include "coding/verification.h"

namespace noisybeeps {

struct RewindSimOptions {
  NoiseRegime regime = NoiseRegime::kTwoSided;
  FlagRule flag_rule = FlagRule::kMajority;
  // Chunk length; 0 => n (two-sided, as in the paper) or 8 (down-only /
  // scheduled).
  int chunk_len = 0;
  // Per-round repetitions in the simulation phase; 0 => rep_c*log2(n)+1
  // (two-sided) or 1 (down-only / scheduled).
  int rep_factor = 0;
  int rep_c = 3;
  // Beep-code length factor for the owner phase (bits per symbol ~
  // factor * (log2(chunk_len+1)+1)).
  int code_length_factor = 6;
  // Rounds per flag exchange; 0 => 4*log2(n)+8 (two-sided) or 5 (down-only
  // / scheduled).
  int flag_reps = 0;
  std::uint64_t code_seed = 0x5eedbee9;
  // Hard budget of noisy rounds; 0 => 300*(T+64)*(log2(n)+2).  Exhaustion
  // sets SimulationResult::budget_exhausted.
  std::int64_t max_rounds = 0;
  // Pre-assigned round ownership for SCHEDULED (broadcast-like) protocols:
  // owner_schedule[m] is the only party that may beep in protocol round m.
  // When non-empty (size must equal the protocol length), Algorithm 1's
  // owner-finding phase is skipped entirely -- the schedule IS the owner
  // map -- and the cheap defaults (rep 1, short chunks, constant flags)
  // apply.  This is the Section 1.3 / 2.1 contrast with [EKS18] made
  // executable: when every transcript bit has a pre-assigned owner, both
  // 0s and 1s are verifiable by that owner alone, and constant-overhead
  // simulation is possible even under two-sided noise.  The Theta(log n)
  // of Theorems 1.1/1.2 is the price of the beeping model's simultaneity,
  // paid only by protocols that use it.
  std::vector<int> owner_schedule;

  [[nodiscard]] bool scheduled() const { return !owner_schedule.empty(); }

  // The paper's two presets, plus the EKS18-style scheduled preset.
  static RewindSimOptions TwoSided() { return {}; }
  static RewindSimOptions DownOnly() {
    RewindSimOptions o;
    o.regime = NoiseRegime::kDownOnly;
    o.flag_rule = FlagRule::kAnyOne;
    return o;
  }
  static RewindSimOptions Scheduled(std::vector<int> schedule) {
    RewindSimOptions o;
    o.owner_schedule = std::move(schedule);
    return o;
  }
};

class RewindSimulator final : public Simulator {
 public:
  explicit RewindSimulator(RewindSimOptions options = {});

  using Simulator::Simulate;
  [[nodiscard]] SimulationResult Simulate(const Protocol& protocol,
                                          const Channel& channel,
                                          const FaultPlan& faults,
                                          Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const RewindSimOptions& options() const { return options_; }

  // Effective parameters for an n-party protocol (defaults resolved).
  [[nodiscard]] int EffectiveChunkLen(int n) const;
  [[nodiscard]] int EffectiveRepFactor(int n) const;
  [[nodiscard]] int EffectiveFlagReps(int n) const;

  // The owner phase's code for chunks of `chunk_len` rounds:
  // BeepCode(chunk_len, code_length_factor, code_seed + chunk_len), part
  // of the protocol description.  Built on first use and kept, so every
  // later trial and worker of this simulator reads the same immutable
  // code.  Thread-safe; the reference stays valid while the simulator
  // lives.  Precondition: chunk_len >= 1.
  [[nodiscard]] const BeepCode& OwnerCode(int chunk_len) const;

 private:
  RewindSimOptions options_;
  mutable std::mutex codes_mutex_;
  // Guarded by codes_mutex_.  Map nodes never move, so handed-out
  // references survive later insertions.
  mutable std::map<int, BeepCode> codes_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CODING_REWIND_SIM_H_
