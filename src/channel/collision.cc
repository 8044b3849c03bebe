#include "channel/collision.h"

#include "util/format.h"
#include "util/require.h"

namespace noisybeeps {

CollisionAsSilenceChannel::CollisionAsSilenceChannel(double epsilon)
    : epsilon_(epsilon), noise_(epsilon) {
  NB_REQUIRE(epsilon >= 0.0 && epsilon < 0.5,
             "noise rate must lie in [0, 1/2)");
}

bool CollisionAsSilenceChannel::SharedOutcome(std::int64_t num_beepers,
                                              Rng& rng) const {
  // A round is a 1 only for a lone transmitter; collisions (>= 2) and
  // silence (0) both deliver 0, before noise.  The eps == 0 case consumes
  // no randomness (the historical stream contract).
  const bool clean = num_beepers == 1;
  return epsilon_ > 0.0 ? clean != noise_.Sample(rng) : clean;
}

std::string CollisionAsSilenceChannel::name() const {
  return "collision-as-silence(eps=" + FormatDouble(epsilon_) + ")";
}

}  // namespace noisybeeps
