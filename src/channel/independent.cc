#include "channel/independent.h"

#include <algorithm>

#include "util/format.h"
#include "util/require.h"

namespace noisybeeps {

IndependentNoisyChannel::IndependentNoisyChannel(double epsilon)
    : epsilon_(epsilon),
      noise_(epsilon),
      word_noise_(epsilon),
      skip_(epsilon) {
  NB_REQUIRE(epsilon >= 0.0 && epsilon < 0.5,
             "noise rate must lie in [0, 1/2)");
}

void IndependentNoisyChannel::DeliverWords(std::int64_t num_beepers,
                                           std::span<std::uint64_t> received,
                                           std::int64_t num_parties,
                                           WordMode mode, Rng& rng) const {
  CheckWordDelivery(num_beepers, received, num_parties);
  const bool or_bit = num_beepers > 0;

  if (mode == WordMode::kStreamCompat) {
    // The historical stream: one Sample per listener in listener order,
    // packed as we go.  The precomputed sampler turns each draw into a
    // single integer compare.
    for (std::size_t w = 0; w < received.size(); ++w) {
      const std::int64_t base = static_cast<std::int64_t>(w) * kWordBits;
      const std::int64_t lanes = std::min(kWordBits, num_parties - base);
      std::uint64_t noise = 0;
      for (std::int64_t b = 0; b < lanes; ++b) {
        noise |= static_cast<std::uint64_t>(noise_.Sample(rng)) << b;
      }
      const std::uint64_t lane_mask =
          lanes == kWordBits ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << lanes) - 1;
      received[w] = or_bit ? (~noise & lane_mask) : noise;
    }
    return;
  }

  // kFast: start from the shared OR and XOR in the flips.
  FillSharedWords(received, num_parties, or_bit);
  if (epsilon_ <= 0.0) return;  // no flips, no draws

  if (epsilon_ * static_cast<double>(kWordBits) < 1.0) {
    // Sparse flips: geometric skip-sampling walks directly from one
    // flipped listener to the next (expected draws eps * n per round).
    // The walk is over the whole round's bit range, so a gap straddling a
    // word boundary is a single draw by construction.
    std::int64_t pos = -1;
    for (;;) {
      const std::uint64_t gap = skip_.NextGap(rng);
      if (gap == GeometricSkipSampler::kNoSuccess ||
          gap >= static_cast<std::uint64_t>(num_parties - pos) - 1) {
        break;
      }
      pos += static_cast<std::int64_t>(gap) + 1;
      received[static_cast<std::size_t>(pos / kWordBits)] ^=
          std::uint64_t{1} << (pos % kWordBits);
    }
    return;
  }

  // Dense flips: bit-sliced word draws, ~log2(64) + 2 NextU64 per 64
  // listeners regardless of eps.  Mask the tail word so slack bits stay
  // zero.
  const std::size_t last = received.size() - 1;
  for (std::size_t w = 0; w < received.size(); ++w) {
    std::uint64_t flips = word_noise_.NoiseWord(rng);
    if (w == last) flips &= TailWordMask(num_parties);
    received[w] ^= flips;
  }
}

std::string IndependentNoisyChannel::name() const {
  return "independent(eps=" + FormatDouble(epsilon_) + ")";
}

}  // namespace noisybeeps

