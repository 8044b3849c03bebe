#include "channel/independent.h"

#include <algorithm>

#include "util/format.h"
#include "util/require.h"

namespace noisybeeps {

IndependentNoisyChannel::IndependentNoisyChannel(double epsilon)
    : epsilon_(epsilon), noise_(epsilon) {
  NB_REQUIRE(epsilon >= 0.0 && epsilon < 0.5,
             "noise rate must lie in [0, 1/2)");
}

void IndependentNoisyChannel::DeliverWords(std::int64_t num_beepers,
                                           std::span<std::uint64_t> received,
                                           std::int64_t num_parties,
                                           WordMode /*mode*/, Rng& rng) const {
  CheckWordDelivery(num_beepers, received, num_parties);
  const bool or_bit = num_beepers > 0;
  // One Sample per listener in listener order, packed as we go.  The
  // precomputed sampler turns each draw into a single integer compare.
  for (std::size_t w = 0; w < received.size(); ++w) {
    const std::int64_t base = static_cast<std::int64_t>(w) * kWordBits;
    const std::int64_t lanes = std::min(kWordBits, num_parties - base);
    std::uint64_t noise = 0;
    for (std::int64_t b = 0; b < lanes; ++b) {
      noise |= static_cast<std::uint64_t>(noise_.Sample(rng)) << b;
    }
    received[w] = or_bit ? (~noise & TailWordMask(lanes)) : noise;
  }
}

std::string IndependentNoisyChannel::name() const {
  return "independent(eps=" + FormatDouble(epsilon_) + ")";
}

}  // namespace noisybeeps

