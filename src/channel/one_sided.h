// One-sided noisy beeping channels (Appendix A.1.2).
//
// OneSidedUpChannel: noise only turns silence into a beep (0 -> 1 with
// probability eps; a transmitted 1 is always delivered).  This is the
// relaxation under which the paper proves its lower bound: a received 0
// certifies that all parties beeped 0.
//
// OneSidedDownChannel: the symmetric-opposite regime where noise only
// drops beeps (1 -> 0 with probability eps).  Section 2 observes that this
// direction admits constant-overhead simulation, because the party whose
// beep was dropped detects the error by itself.
#ifndef NOISYBEEPS_CHANNEL_ONE_SIDED_H_
#define NOISYBEEPS_CHANNEL_ONE_SIDED_H_

#include "channel/channel.h"

namespace noisybeeps {

class OneSidedUpChannel final : public SharedDrawChannel {
 public:
  // Precondition: 0 <= epsilon < 1.
  explicit OneSidedUpChannel(double epsilon);

  // At most one draw per round: none when someone beeped.
  [[nodiscard]] bool SharedOutcome(std::int64_t num_beepers,
                                   Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double epsilon() const { return epsilon_; }

 private:
  double epsilon_;
  BernoulliSampler noise_;
};

class OneSidedDownChannel final : public SharedDrawChannel {
 public:
  // Precondition: 0 <= epsilon < 1.
  explicit OneSidedDownChannel(double epsilon);

  // At most one draw per round: none on silence.
  [[nodiscard]] bool SharedOutcome(std::int64_t num_beepers,
                                   Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double epsilon() const { return epsilon_; }

 private:
  double epsilon_;
  BernoulliSampler noise_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_ONE_SIDED_H_
