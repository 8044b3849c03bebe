// Burst noise: a Gilbert-Elliott two-state Markov channel.
//
// The paper's model draws noise iid per round.  Real interference is
// bursty: quiet stretches punctuated by bad episodes.  The classical
// Gilbert-Elliott model captures this with a hidden GOOD/BAD state: the
// output bit is flipped with rate eps_good or eps_bad depending on the
// state, and the state evolves as a two-state Markov chain with
// transition probabilities p (good->bad) and q (bad->good).  Stationary
// noise rate: (q * eps_good + p * eps_bad) / (p + q).
//
// This is an EXTENSION experiment (E10): none of the paper's theorems
// assume independence across rounds in the adversary's favour, and the
// rewind schemes' verification is exact regardless of how the noise was
// produced -- only the retry/flag failure rates degrade when errors
// cluster.  bench_burst measures how much.
//
// The Markov state lives inside the channel (mutable): like the Rng it is
// part of the stochastic environment the channel models, not of the
// channel's logical configuration.  Channels are not thread-safe.
#ifndef NOISYBEEPS_CHANNEL_BURST_H_
#define NOISYBEEPS_CHANNEL_BURST_H_

#include "channel/channel.h"

namespace noisybeeps {

class BurstNoisyChannel final : public SharedDrawChannel {
 public:
  // Preconditions: rates in [0, 1); transition probabilities in (0, 1].
  BurstNoisyChannel(double eps_good, double eps_bad, double p_good_to_bad,
                    double p_bad_to_good);

  // Transition draw then emission draw: two Samples per round, advancing
  // the Markov state.
  [[nodiscard]] bool SharedOutcome(std::int64_t num_beepers,
                                   Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  // The long-run average flip rate.
  [[nodiscard]] double StationaryNoiseRate() const;
  // Expected burst (BAD-state dwell) length, 1 / p_bad_to_good.
  [[nodiscard]] double MeanBurstLength() const;

  // Resets the hidden state to GOOD (e.g. between trials).
  void Reset() const { in_bad_state_ = false; }

 private:
  double eps_good_;
  double eps_bad_;
  double p_gb_;
  double p_bg_;
  BernoulliSampler noise_good_;
  BernoulliSampler noise_bad_;
  BernoulliSampler trans_gb_;
  BernoulliSampler trans_bg_;
  mutable bool in_bad_state_ = false;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_BURST_H_
