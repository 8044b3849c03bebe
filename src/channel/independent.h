// The independent-noise beeping channel (Section 1.2): every party
// receives its own epsilon-noisy copy of the OR, with noise independent
// across parties and rounds.  Parties may witness different transcripts.
//
// Per-listener noise means one sampler draw per listener per round, in
// listener order: the historical stream every independent-noise golden
// and EXPERIMENTS.md number pins.
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
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_INDEPENDENT_H_
