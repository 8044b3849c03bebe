#include "coding/hierarchical_sim.h"

#include <utility>

#include "coding/sim_common.h"
#include "util/math.h"
#include "util/require.h"

namespace noisybeeps {

HierarchicalSimulator::HierarchicalSimulator(HierarchicalSimOptions options)
    : options_(std::move(options)), flat_(options_.base) {
  NB_REQUIRE(options_.audit_flag_base >= 0 && options_.audit_flag_slope >= 0,
             "negative audit parameter");
}

SimulationResult HierarchicalSimulator::Simulate(const Protocol& protocol,
                                                 const Channel& channel,
                                                 const FaultPlan& faults,
                                                 Rng& rng) const {
  const int n = protocol.num_parties();
  const internal::AuditSchedule audits{
      .base = options_.audit_flag_base > 0 ? options_.audit_flag_base
                                           : flat_.EffectiveFlagReps(n),
      .slope = options_.audit_flag_slope};
  const std::int64_t max_rounds =
      options_.base.max_rounds > 0
          ? options_.base.max_rounds
          : 400LL * (protocol.length() + 64) *
                (CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n)) + 2);
  return internal::RunChunkLoop(protocol, channel, faults, rng, flat_,
                                max_rounds, &audits);
}

std::string HierarchicalSimulator::name() const {
  return options_.base.regime == NoiseRegime::kTwoSided
             ? "hierarchical(two-sided)"
             : "hierarchical(down-only)";
}

}  // namespace noisybeeps
