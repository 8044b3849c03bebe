#include "channel/shared_randomness.h"

#include "util/format.h"
#include "util/require.h"

namespace noisybeeps {

SharedRandomnessOneSidedAdapter::SharedRandomnessOneSidedAdapter(
    double up_eps, double flip_prob)
    : inner_(up_eps), flip_prob_(flip_prob), flip_(flip_prob) {
  NB_REQUIRE(flip_prob >= 0.0 && flip_prob < 1.0,
             "shared flip probability must lie in [0, 1)");
}

bool SharedRandomnessOneSidedAdapter::SharedOutcome(std::int64_t num_beepers,
                                                    Rng& rng) const {
  // Step 1: the underlying one-sided-up channel.
  bool bit = inner_.SharedOutcome(num_beepers, rng);
  // Step 2: shared-randomness downward flip applied by the parties
  // themselves.  Because the randomness is shared, everyone flips (or not)
  // in unison, so the channel stays correlated.  The short-circuit (no
  // draw on a received 0) is part of the stream contract.
  if (bit && flip_.Sample(rng)) bit = false;
  return bit;
}

std::string SharedRandomnessOneSidedAdapter::name() const {
  return "shared-randomness(up=" + FormatDouble(inner_.epsilon()) +
         ",flip=" + FormatDouble(flip_prob_) + ")";
}

}  // namespace noisybeeps
