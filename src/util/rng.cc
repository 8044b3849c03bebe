#include "util/rng.h"

#include <bit>
#include <cmath>

#include "util/require.h"

namespace noisybeeps {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

std::uint64_t Rng::NextU64() {
  // xoshiro256** by Blackman & Vigna (public domain reference algorithm).
  const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::UniformInt(std::uint64_t bound) {
  NB_REQUIRE(bound > 0, "UniformInt bound must be positive");
  // Lemire's multiply-shift method with rejection for exact uniformity.
  std::uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::UniformDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  // Validate before drawing: an out-of-range p must not advance the
  // stream (comparison operand order is unspecified).
  const std::uint64_t threshold = BernoulliThreshold(p);
  return (NextU64() >> 11) < threshold;
}

std::uint64_t BernoulliThreshold(double p) {
  NB_REQUIRE(p >= 0.0 && p <= 1.0, "Bernoulli parameter out of [0,1]");
  // p * 2^53 is exact (power-of-two scaling of a double in [0, 1]), so
  // ceil introduces no rounding; the result fits in 54 bits.
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

BernoulliSampler::BernoulliSampler(double p) : p_(p), threshold_(0) {
  NB_REQUIRE(p >= 0.0 && p <= 1.0, "Bernoulli parameter out of [0,1]");
  threshold_ = BernoulliThreshold(p);
}

Rng Rng::Restore(const std::array<std::uint64_t, 4>& state) {
  NB_REQUIRE(state[0] != 0 || state[1] != 0 || state[2] != 0 || state[3] != 0,
             "all-zero state is the xoshiro256** fixed point");
  Rng rng(0);
  rng.state_ = state;
  return rng;
}

Rng Rng::Split() {
  // Seed the child from fresh output; the child reseeds through SplitMix64
  // so parent and child trajectories are decorrelated.
  return Rng(NextU64());
}

}  // namespace noisybeeps
