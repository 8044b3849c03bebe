#include "channel/correlated.h"

#include "util/format.h"
#include "util/require.h"

namespace noisybeeps {

CorrelatedNoisyChannel::CorrelatedNoisyChannel(double epsilon)
    : epsilon_(epsilon), noise_(epsilon) {
  NB_REQUIRE(epsilon >= 0.0 && epsilon < 0.5,
             "noise rate must lie in [0, 1/2)");
}

bool CorrelatedNoisyChannel::SharedOutcome(std::int64_t num_beepers,
                                           Rng& rng) const {
  return (num_beepers > 0) != noise_.Sample(rng);
}

std::string CorrelatedNoisyChannel::name() const {
  return "correlated(eps=" + FormatDouble(epsilon_) + ")";
}

}  // namespace noisybeeps
