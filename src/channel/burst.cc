#include "channel/burst.h"

#include "util/format.h"
#include "util/require.h"

namespace noisybeeps {

BurstNoisyChannel::BurstNoisyChannel(double eps_good, double eps_bad,
                                     double p_good_to_bad,
                                     double p_bad_to_good)
    : eps_good_(eps_good),
      eps_bad_(eps_bad),
      p_gb_(p_good_to_bad),
      p_bg_(p_bad_to_good),
      noise_good_(eps_good),
      noise_bad_(eps_bad),
      trans_gb_(p_good_to_bad),
      trans_bg_(p_bad_to_good) {
  NB_REQUIRE(eps_good >= 0.0 && eps_good < 1.0, "good-state rate out of range");
  NB_REQUIRE(eps_bad >= 0.0 && eps_bad < 1.0, "bad-state rate out of range");
  NB_REQUIRE(p_good_to_bad > 0.0 && p_good_to_bad <= 1.0,
             "good->bad probability out of range");
  NB_REQUIRE(p_bad_to_good > 0.0 && p_bad_to_good <= 1.0,
             "bad->good probability out of range");
}

bool BurstNoisyChannel::SharedOutcome(std::int64_t num_beepers,
                                      Rng& rng) const {
  // State transition first, then emission: dwell times are geometric.
  if (in_bad_state_) {
    if (trans_bg_.Sample(rng)) in_bad_state_ = false;
  } else {
    if (trans_gb_.Sample(rng)) in_bad_state_ = true;
  }
  const BernoulliSampler& noise = in_bad_state_ ? noise_bad_ : noise_good_;
  return (num_beepers > 0) != noise.Sample(rng);
}

std::string BurstNoisyChannel::name() const {
  return "burst(good=" + FormatDouble(eps_good_) +
         ",bad=" + FormatDouble(eps_bad_) +
         ",burst_len=" + FormatDouble(MeanBurstLength()) + ")";
}

double BurstNoisyChannel::StationaryNoiseRate() const {
  return (p_bg_ * eps_good_ + p_gb_ * eps_bad_) / (p_gb_ + p_bg_);
}

double BurstNoisyChannel::MeanBurstLength() const { return 1.0 / p_bg_; }

}  // namespace noisybeeps
