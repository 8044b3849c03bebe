// The collision-as-silence radio-network channel.
//
// In the multi-hop radio-network models of the paper's related work
// ([CHHZ17, CHHZ18, EKS19]; "collision-as-silence"), a round is heard as
// a 1 only when EXACTLY ONE party transmits: two or more simultaneous
// transmissions collide and sound like silence.  This channel is the
// single-hop instance, with optional two-sided eps noise on top.
//
// It demonstrates what the beeper-count channel interface buys, and makes
// a model boundary of the paper concrete: protocols whose rounds never
// carry more than one beeper (schedule-owned ones like BitExchange)
// behave identically here and on the beeping channel, while protocols
// that lean on the OR of simultaneous beeps (InputSet with duplicate
// inputs, the verification flag exchanges, Lemma-style counting tricks)
// break -- which is exactly why the paper's results do not transfer to
// radio networks verbatim (EKS19 proves that model needs its own
// logarithmic overhead).  The interactive-coding schemes in coding/ are
// specified for OR channels only; this channel is provided as an
// execution substrate, not as a coding target.
#ifndef NOISYBEEPS_CHANNEL_COLLISION_H_
#define NOISYBEEPS_CHANNEL_COLLISION_H_

#include "channel/channel.h"

namespace noisybeeps {

class CollisionAsSilenceChannel final : public SharedDrawChannel {
 public:
  // Precondition: 0 <= epsilon < 1/2 (0 = the noiseless collision model).
  explicit CollisionAsSilenceChannel(double epsilon);

  // At most one draw per round: none when eps == 0.
  [[nodiscard]] bool SharedOutcome(std::int64_t num_beepers,
                                   Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double epsilon() const { return epsilon_; }

 private:
  double epsilon_;
  BernoulliSampler noise_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_COLLISION_H_
