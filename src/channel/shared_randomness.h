// The Appendix A.1.2 reduction, as a channel adapter.
//
// The paper shows that the two-sided 1/4-noisy channel can be emulated on
// top of the one-sided-up 1/3-noisy channel plus shared randomness: the
// parties run the one-sided channel, and whenever they receive a 1 they
// flip it to 0 with probability 1/4 using the shared random string.  Then
//   Pr[output 0 | someone beeped 1] = 1/4   (only the shared flip), and
//   Pr[output 1 | all beeped 0]     = (1/3) * (3/4) = 1/4,
// i.e. the composite is exactly the two-sided 1/4-noisy channel.  This is
// how a lower bound for the one-sided model transfers to the two-sided
// model.  The adapter generalizes the constants: on top of a one-sided-up
// channel with rate `up_eps` and a shared downward flip with rate
// `flip_prob`, the composite is two-sided with
//   Pr[1 -> 0] = flip_prob,  Pr[0 -> 1] = up_eps * (1 - flip_prob),
// which are equal exactly when flip_prob = up_eps / (1 + up_eps).
#ifndef NOISYBEEPS_CHANNEL_SHARED_RANDOMNESS_H_
#define NOISYBEEPS_CHANNEL_SHARED_RANDOMNESS_H_

#include "channel/one_sided.h"

namespace noisybeeps {

class SharedRandomnessOneSidedAdapter final : public SharedDrawChannel {
 public:
  // Preconditions: 0 <= up_eps < 1, 0 <= flip_prob < 1.
  SharedRandomnessOneSidedAdapter(double up_eps, double flip_prob);

  // The paper's instantiation: one-sided 1/3 + shared 1/4 flip = 1/4-noisy.
  static SharedRandomnessOneSidedAdapter PaperInstance() {
    return SharedRandomnessOneSidedAdapter(1.0 / 3.0, 0.25);
  }

  // The inner one-sided draw, then the shared flip (no draw on a received
  // 0).
  [[nodiscard]] bool SharedOutcome(std::int64_t num_beepers,
                                   Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  // The effective two-sided flip rates of the composite channel.
  [[nodiscard]] double EffectiveDownRate() const { return flip_prob_; }
  [[nodiscard]] double EffectiveUpRate() const {
    return inner_.epsilon() * (1.0 - flip_prob_);
  }

 private:
  OneSidedUpChannel inner_;
  double flip_prob_;
  BernoulliSampler flip_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_SHARED_RANDOMNESS_H_
