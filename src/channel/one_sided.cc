#include "channel/one_sided.h"

#include "util/format.h"
#include "util/require.h"

namespace noisybeeps {

OneSidedUpChannel::OneSidedUpChannel(double epsilon)
    : epsilon_(epsilon), noise_(epsilon) {
  NB_REQUIRE(epsilon >= 0.0 && epsilon < 1.0, "noise rate must lie in [0, 1)");
}

bool OneSidedUpChannel::SharedOutcome(std::int64_t num_beepers,
                                      Rng& rng) const {
  // Short-circuit is part of the stream contract: no draw when someone
  // beeped.
  return num_beepers > 0 || noise_.Sample(rng);
}

std::string OneSidedUpChannel::name() const {
  return "one-sided-up(eps=" + FormatDouble(epsilon_) + ")";
}

OneSidedDownChannel::OneSidedDownChannel(double epsilon)
    : epsilon_(epsilon), noise_(epsilon) {
  NB_REQUIRE(epsilon >= 0.0 && epsilon < 1.0, "noise rate must lie in [0, 1)");
}

bool OneSidedDownChannel::SharedOutcome(std::int64_t num_beepers,
                                        Rng& rng) const {
  // Short-circuit on silence is part of the stream contract.
  return num_beepers > 0 && !noise_.Sample(rng);
}

std::string OneSidedDownChannel::name() const {
  return "one-sided-down(eps=" + FormatDouble(epsilon_) + ")";
}

}  // namespace noisybeeps
