// The independent-noise beeping channel (Section 1.2): every party
// receives its own epsilon-noisy copy of the OR, with noise independent
// across parties and rounds.  Parties may witness different transcripts.
//
// This is the one built-in channel whose word modes are distinct streams:
// per-listener noise means kStreamCompat draws one Sample per listener in
// listener order (the historical stream), while kFast batches -- geometric skip-sampling when
// flips are sparse (expected draws ~ eps * n), bit-sliced word draws
// otherwise (~7.5 draws per 64 listeners).  Both modes sample each
// listener's flip from the identical fixed-point Bernoulli(eps)
// distribution; only the draw order and count differ.
#ifndef NOISYBEEPS_CHANNEL_INDEPENDENT_H_
#define NOISYBEEPS_CHANNEL_INDEPENDENT_H_

#include "channel/channel.h"

namespace noisybeeps {

class IndependentNoisyChannel final : public Channel {
 public:
  // Precondition: 0 <= epsilon < 1/2.
  explicit IndependentNoisyChannel(double epsilon);

  void DeliverWords(std::int64_t num_beepers,
                    std::span<std::uint64_t> received,
                    std::int64_t num_parties, WordMode mode,
                    Rng& rng) const override;
  [[nodiscard]] bool is_correlated() const override { return false; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double epsilon() const { return epsilon_; }

 private:
  double epsilon_;
  BernoulliSampler noise_;
  BernoulliWordSampler word_noise_;
  GeometricSkipSampler skip_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_INDEPENDENT_H_
