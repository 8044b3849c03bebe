// Deterministic, splittable random number generation.
//
// Every stochastic component of the library (channel noise, randomized
// protocols, workload generators, Monte Carlo experiments) draws from an
// Rng that is explicitly seeded, so that every test, example, and benchmark
// is reproducible bit-for-bit.  The generator is xoshiro256** seeded via
// SplitMix64; Split() derives an independent child stream, which is how the
// executor hands private randomness to parties without correlating them.
#ifndef NOISYBEEPS_UTIL_RNG_H_
#define NOISYBEEPS_UTIL_RNG_H_

#include <array>
#include <cstdint>

namespace noisybeeps {

class Rng {
 public:
  // Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next 64 uniform random bits.
  std::uint64_t NextU64();

  // Uniform integer in [0, bound).  Precondition: bound > 0.
  // Uses rejection sampling (Lemire-style) and is exactly uniform.
  std::uint64_t UniformInt(std::uint64_t bound);

  // Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble();

  // True with probability p.  Precondition: 0 <= p <= 1.
  // Consumes exactly one NextU64 and decides via the fixed-point
  // threshold (see BernoulliThreshold), which is bit-identical to the
  // historical `UniformDouble() < p` comparison.
  bool Bernoulli(double p);

  // Uniform random bit.
  bool Bit() { return (NextU64() >> 63) != 0; }

  // Derives an independent generator.  The child stream is decorrelated
  // from the parent's subsequent output (distinct SplitMix64 seed chain).
  Rng Split();

  // The full 256-bit generator state, for checkpointing (resilience
  // layer).  Restore(SaveState()) reconstructs a generator that emits the
  // identical stream from this point on.
  [[nodiscard]] std::array<std::uint64_t, 4> SaveState() const {
    return state_;
  }

  // Rebuilds a generator from a saved state.
  // Precondition: state is not all-zero (the xoshiro256** fixed point).
  [[nodiscard]] static Rng Restore(const std::array<std::uint64_t, 4>& state);

 private:
  std::array<std::uint64_t, 4> state_;
};

// The fixed-point threshold t(p) = ceil(p * 2^53), so that for the 53-bit
// draw k = NextU64() >> 11 the comparisons
//
//     k < t(p)      and      k * 2^-53 < p
//
// agree for EVERY double p in [0, 1] and every k in [0, 2^53):  k * 2^-53
// and p * 2^53 are both exact in IEEE double (power-of-two scaling, no
// overflow since p <= 1, and a subnormal p scales up to a normal value),
// so `k * 2^-53 < p  <=>  k < p * 2^53  <=>  k < ceil(p * 2^53)` for
// integer k.  This lets hot paths replace a u64->double conversion,
// multiply, and double compare per sample with a single integer compare
// against a precomputed constant -- without changing a single random
// stream.  Precondition: 0 <= p <= 1.
[[nodiscard]] std::uint64_t BernoulliThreshold(double p);

// Precomputed Bernoulli(p) sampler for hot loops that draw from one fixed
// p many times (the channel Deliver implementations).  Sample() consumes
// exactly one NextU64 and is bit-identical to Rng::Bernoulli(p) -- and to
// the historical `UniformDouble() < p` path -- so threading a sampler
// through a hot loop never perturbs a seeded stream.
class BernoulliSampler {
 public:
  // Precondition: 0 <= p <= 1.
  explicit BernoulliSampler(double p = 0.0);

  // True with probability p(); consumes exactly one NextU64.
  [[nodiscard]] bool Sample(Rng& rng) const {
    return (rng.NextU64() >> 11) < threshold_;
  }

  [[nodiscard]] double p() const { return p_; }
  [[nodiscard]] std::uint64_t threshold() const { return threshold_; }

 private:
  double p_;
  std::uint64_t threshold_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_UTIL_RNG_H_
