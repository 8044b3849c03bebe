// The noiseless beeping channel: every party receives exactly the OR.
#ifndef NOISYBEEPS_CHANNEL_NOISELESS_H_
#define NOISYBEEPS_CHANNEL_NOISELESS_H_

#include "channel/channel.h"

namespace noisybeeps {

class NoiselessChannel final : public SharedDrawChannel {
 public:
  // Deterministic: no draws.
  [[nodiscard]] bool SharedOutcome(std::int64_t num_beepers,
                                   Rng& /*rng*/) const override {
    return num_beepers > 0;
  }
  [[nodiscard]] std::string name() const override { return "noiseless"; }
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_NOISELESS_H_
