#include "coding/rewind_sim.h"

#include "coding/sim_common.h"
#include "util/math.h"
#include "util/require.h"

namespace noisybeeps {

RewindSimulator::RewindSimulator(RewindSimOptions options)
    : options_(options) {
  NB_REQUIRE(options_.chunk_len >= 0 && options_.rep_factor >= 0 &&
                 options_.flag_reps >= 0 && options_.max_rounds >= 0,
             "negative option");
  NB_REQUIRE(options_.rep_c >= 1 && options_.code_length_factor >= 1,
             "multipliers must be positive");
}

int RewindSimulator::EffectiveChunkLen(int n) const {
  if (options_.chunk_len > 0) return options_.chunk_len;
  if (options_.regime == NoiseRegime::kDownOnly || options_.scheduled()) {
    return 8;
  }
  return n;
}

int RewindSimulator::EffectiveRepFactor(int n) const {
  if (options_.rep_factor > 0) return options_.rep_factor;
  if (options_.regime == NoiseRegime::kDownOnly || options_.scheduled()) {
    return 1;
  }
  return options_.rep_c * CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n)) +
         1;
}

int RewindSimulator::EffectiveFlagReps(int n) const {
  if (options_.flag_reps > 0) return options_.flag_reps;
  if (options_.regime == NoiseRegime::kDownOnly) return 5;
  if (options_.scheduled()) return 9;  // two-sided majority needs headroom
  return 4 * CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n)) + 8;
}

const BeepCode& RewindSimulator::OwnerCode(int chunk_len) const {
  const std::lock_guard<std::mutex> lock(codes_mutex_);
  auto it = codes_.find(chunk_len);
  if (it == codes_.end()) {
    it = codes_
             .emplace(chunk_len,
                      BeepCode(chunk_len, options_.code_length_factor,
                               options_.code_seed +
                                   static_cast<std::uint64_t>(chunk_len)))
             .first;
  }
  return it->second;
}

SimulationResult RewindSimulator::Simulate(const Protocol& protocol,
                                           const Channel& channel,
                                           const FaultPlan& faults,
                                           Rng& rng) const {
  const int n = protocol.num_parties();
  const std::int64_t max_rounds =
      options_.max_rounds > 0
          ? options_.max_rounds
          : 300LL * (protocol.length() + 64) *
                (CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n)) + 2);
  return internal::RunChunkLoop(protocol, channel, faults, rng, *this,
                                max_rounds, /*audits=*/nullptr);
}

std::string RewindSimulator::name() const {
  if (options_.scheduled()) return "rewind(scheduled)";
  return options_.regime == NoiseRegime::kTwoSided ? "rewind(two-sided)"
                                                   : "rewind(down-only)";
}

}  // namespace noisybeeps
