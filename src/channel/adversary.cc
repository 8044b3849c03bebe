#include "channel/adversary.h"

#include "util/format.h"
#include "util/require.h"

namespace noisybeeps {

AdversarialCorrectionChannel::AdversarialCorrectionChannel(
    double epsilon, CorrectionPolicy policy)
    : epsilon_(epsilon), policy_(policy), noise_(epsilon) {
  NB_REQUIRE(epsilon >= 0.0 && epsilon < 0.5,
             "noise rate must lie in [0, 1/2)");
}

bool AdversarialCorrectionChannel::SharedOutcome(std::int64_t num_beepers,
                                                 Rng& rng) const {
  const bool or_bit = num_beepers > 0;
  // The underlying two-sided channel decides on a flip...
  bool out = or_bit != noise_.Sample(rng);
  // ...then the adversary, knowing the truth, may revert it.
  if (out != or_bit) {
    const bool is_drop = or_bit;  // a flipped 1 (delivered as 0)
    const bool revert =
        policy_ == CorrectionPolicy::kCorrectAll ||
        (policy_ == CorrectionPolicy::kCorrectDrops && is_drop) ||
        (policy_ == CorrectionPolicy::kCorrectSpurious && !is_drop);
    if (revert) out = or_bit;
  }
  return out;
}

std::string AdversarialCorrectionChannel::name() const {
  const char* policy = "never";
  switch (policy_) {
    case CorrectionPolicy::kNever:
      policy = "never";
      break;
    case CorrectionPolicy::kCorrectDrops:
      policy = "drops";
      break;
    case CorrectionPolicy::kCorrectSpurious:
      policy = "spurious";
      break;
    case CorrectionPolicy::kCorrectAll:
      policy = "all";
      break;
  }
  return "adversary(eps=" + FormatDouble(epsilon_) + ",corrects=" + policy +
         ")";
}

}  // namespace noisybeeps
