// The paper's main model (Appendix A.1.1): the n-party epsilon-noisy
// beeping channel with correlated noise.  In every round the shared output
// is OR XOR N_eps where N_eps is 1 with probability eps, independently
// across rounds; all parties receive the same bit.
#ifndef NOISYBEEPS_CHANNEL_CORRELATED_H_
#define NOISYBEEPS_CHANNEL_CORRELATED_H_

#include "channel/channel.h"

namespace noisybeeps {

class CorrelatedNoisyChannel final : public SharedDrawChannel {
 public:
  // Precondition: 0 <= epsilon < 1/2 (epsilon = 0 degenerates to the
  // noiseless channel; >= 1/2 carries no information).
  explicit CorrelatedNoisyChannel(double epsilon);

  // One Sample per round.
  [[nodiscard]] bool SharedOutcome(std::int64_t num_beepers,
                                   Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double epsilon() const { return epsilon_; }

 private:
  double epsilon_;
  BernoulliSampler noise_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_CORRELATED_H_
