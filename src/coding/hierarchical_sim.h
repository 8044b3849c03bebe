// The hierarchical simulator: the full Section D.2 construction, sound for
// protocols of ARBITRARY length at O(log n) overhead.
//
// The flat rewind scheme trusts each chunk's verification verdict forever;
// one corrupted flag exchange plants a permanent error, so its soundness
// degrades linearly with protocol length.  The paper's A_l hierarchy fixes
// this by re-checking progress at geometrically spaced scales with
// geometrically increasing strength: the protocol A_l runs two copies of
// A_{l-1} and then a progress check that binary-searches for the longest
// correctly simulated prefix, using Theta(l)-fold repetition so that a
// level-l check fails with probability exponentially small in l.  Summing
// the (cost x frequency) series over levels keeps the total overhead
// logarithmic while the error per simulated round vanishes.
//
// This implementation realizes the same accounting iteratively: after
// every 2^l-th committed chunk it audits the ENTIRE committed transcript
// with a binary-search progress check at strength (base + slope*l),
// truncating to the verified prefix (the rewind).  A final maximal-
// strength audit gates termination.  Errors that slip a level-0 verdict
// are caught by a level-l audit within 2^l chunks, exactly the
// almost-doubling progress measure of the paper's analysis.
#ifndef NOISYBEEPS_CODING_HIERARCHICAL_SIM_H_
#define NOISYBEEPS_CODING_HIERARCHICAL_SIM_H_

#include "coding/rewind_sim.h"

namespace noisybeeps {

struct HierarchicalSimOptions {
  // Chunking / repetition / flag parameters, as for the flat scheme.
  RewindSimOptions base;
  // Flag repetitions for a level-l audit: audit_flag_base + l *
  // audit_flag_slope (0 base => the flat scheme's default flag reps).
  int audit_flag_base = 0;
  int audit_flag_slope = 4;

  static HierarchicalSimOptions TwoSided() { return {}; }
  static HierarchicalSimOptions DownOnly() {
    HierarchicalSimOptions o;
    o.base = RewindSimOptions::DownOnly();
    return o;
  }
};

class HierarchicalSimulator final : public Simulator {
 public:
  explicit HierarchicalSimulator(HierarchicalSimOptions options = {});

  using Simulator::Simulate;
  [[nodiscard]] SimulationResult Simulate(const Protocol& protocol,
                                          const Channel& channel,
                                          const FaultPlan& faults,
                                          Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const HierarchicalSimOptions& options() const {
    return options_;
  }

 private:
  HierarchicalSimOptions options_;
  // The flat scheme over options_.base: the chunk parameters, and the owner
  // codes every trial of this simulator shares.
  RewindSimulator flat_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CODING_HIERARCHICAL_SIM_H_
