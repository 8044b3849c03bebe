// Small mathematical helpers shared across the library, including the two
// combinatorial lemmas of the paper's Appendix B that the analysis and the
// tests rely on.
#ifndef NOISYBEEPS_UTIL_MATH_H_
#define NOISYBEEPS_UTIL_MATH_H_

#include <cstdint>
#include <span>
#include <vector>

namespace noisybeeps {

// ceil(log2(x)) for x >= 1; CeilLog2(1) == 0.
[[nodiscard]] int CeilLog2(std::uint64_t x);

// floor(log2(x)) for x >= 1.
[[nodiscard]] int FloorLog2(std::uint64_t x);

// The number of 1 bits of `x`, by SWAR (bit-sliced adds within the word).
// The build targets baseline x86-64, which has no popcount instruction, so
// std::popcount compiles to a libgcc call; this inlines to a dozen ALU
// operations.  Hot word loops (the round engine's beeper count, codeword
// distances, BitString::PopCount) use it.
[[nodiscard]] constexpr int WordPopCount(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555u;
  x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
  return static_cast<int>((x * 0x0101010101010101u) >> 56);
}

// Majority vote over 0/1 values; ties (possible only for even counts)
// resolve to 1 so that the decision is deterministic.
// Precondition: non-empty.
[[nodiscard]] bool Majority(std::span<const std::uint8_t> bits);

// Pr[Binomial(trials, p) >= threshold], computed by direct summation in
// double precision.  Used to size repetition factors and to compare
// measured error rates against analytic tails.
[[nodiscard]] double BinomialUpperTail(int trials, double p, int threshold);

// log2 of the binomial coefficient C(n, k), via lgamma.
[[nodiscard]] double Log2Binomial(int n, int k);

// Left side minus right side of Lemma B.7 (Cauchy-Schwarz form):
//   (sum a_i)^2 / (sum b_i)  <=  sum a_i^2 / b_i
// Returns sum a_i^2/b_i - (sum a_i)^2/(sum b_i), which the lemma asserts is
// non-negative.  Preconditions: equal sizes, all b_i > 0, non-empty.
[[nodiscard]] double LemmaB7Slack(std::span<const double> a,
                                  std::span<const double> b);

// |I| from Lemma B.8: the number of entries of `values` that appear exactly
// once.  The lemma bounds Pr[|I| <= k/3] when values are k iid uniform draws
// from a set of size |S| > k.
[[nodiscard]] std::size_t CountUniqueElements(
    std::span<const std::uint64_t> values);

// The right-hand side of Lemma B.8: (3/2) * (1 - exp(-k/|S|)).
[[nodiscard]] double LemmaB8Bound(std::size_t k, std::size_t set_size);

}  // namespace noisybeeps

#endif  // NOISYBEEPS_UTIL_MATH_H_
