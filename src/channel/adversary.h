// The noise-correcting adversary of Appendix A.1.2.
//
// The paper's second argument that one-sided-up noise is the hard core of
// the model: take the two-sided eps-noisy channel and add an adversary
// that may CORRECT any bit the channel flipped (but can never introduce a
// new error).  Against such an adversary, a protocol cannot rely on the
// noise "being exactly what it is"; and the adversary that corrects
// exactly the 1->0 flips turns the two-sided channel into precisely the
// one-sided-up channel.
//
// AdversarialCorrectionChannel wraps a two-sided noise decision and asks a
// CorrectionPolicy, per flipped round, whether to revert the flip.  The
// policy sees the true OR and the flipped value -- i.e. full knowledge of
// this round, the strongest adversary of this type.  Policies provided:
//   kNever          -- plain two-sided eps noise;
//   kCorrectDrops   -- revert all 1->0 flips: EXACTLY OneSidedUpChannel(eps);
//   kCorrectSpurious-- revert all 0->1 flips: EXACTLY OneSidedDownChannel(eps);
//   kCorrectAll     -- revert everything: the noiseless channel.
// The distributional identities are verified statistically in the tests.
#ifndef NOISYBEEPS_CHANNEL_ADVERSARY_H_
#define NOISYBEEPS_CHANNEL_ADVERSARY_H_

#include "channel/channel.h"

namespace noisybeeps {

enum class CorrectionPolicy {
  kNever,
  kCorrectDrops,     // fix 1 -> 0 flips
  kCorrectSpurious,  // fix 0 -> 1 flips
  kCorrectAll,
};

class AdversarialCorrectionChannel final : public SharedDrawChannel {
 public:
  // Precondition: 0 <= epsilon < 1/2.
  AdversarialCorrectionChannel(double epsilon, CorrectionPolicy policy);

  // One draw per round: a flip, then maybe reverted for free.
  [[nodiscard]] bool SharedOutcome(std::int64_t num_beepers,
                                   Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double epsilon() const { return epsilon_; }
  [[nodiscard]] CorrectionPolicy policy() const { return policy_; }

 private:
  double epsilon_;
  CorrectionPolicy policy_;
  BernoulliSampler noise_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_ADVERSARY_H_
