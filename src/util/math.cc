#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/require.h"

namespace noisybeeps {

int CeilLog2(std::uint64_t x) {
  NB_REQUIRE(x >= 1, "CeilLog2 requires x >= 1");
  int bits = 0;
  std::uint64_t value = 1;
  while (value < x) {
    value <<= 1;
    ++bits;
  }
  return bits;
}

int FloorLog2(std::uint64_t x) {
  NB_REQUIRE(x >= 1, "FloorLog2 requires x >= 1");
  int bits = 0;
  while (x > 1) {
    x >>= 1;
    ++bits;
  }
  return bits;
}

bool Majority(std::span<const std::uint8_t> bits) {
  NB_REQUIRE(!bits.empty(), "Majority of an empty sample is undefined");
  std::size_t ones = 0;
  for (std::uint8_t b : bits) ones += (b != 0);
  return 2 * ones >= bits.size();
}

double BinomialUpperTail(int trials, double p, int threshold) {
  NB_REQUIRE(trials >= 0, "negative trial count");
  NB_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  if (threshold <= 0) return 1.0;
  if (threshold > trials) return 0.0;
  // Sum Pr[X = k] for k in [threshold, trials] in log space for stability.
  double total = 0.0;
  for (int k = threshold; k <= trials; ++k) {
    const double log_term = Log2Binomial(trials, k) +
                            k * std::log2(std::max(p, 1e-300)) +
                            (trials - k) * std::log2(std::max(1.0 - p, 1e-300));
    total += std::exp2(log_term);
  }
  return std::min(total, 1.0);
}

double Log2Binomial(int n, int k) {
  NB_REQUIRE(n >= 0 && k >= 0 && k <= n, "invalid binomial arguments");
  constexpr double kLog2E = 1.4426950408889634;
  return (std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
          std::lgamma(n - k + 1.0)) *
         kLog2E;
}

double LemmaB7Slack(std::span<const double> a, std::span<const double> b) {
  NB_REQUIRE(!a.empty() && a.size() == b.size(),
             "Lemma B.7 needs matched non-empty sequences");
  double sum_a = 0.0;
  double sum_b = 0.0;
  double sum_ratio = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    NB_REQUIRE(b[i] > 0.0, "Lemma B.7 requires positive b_i");
    sum_a += a[i];
    sum_b += b[i];
    sum_ratio += a[i] * a[i] / b[i];
  }
  return sum_ratio - sum_a * sum_a / sum_b;
}

std::size_t CountUniqueElements(std::span<const std::uint64_t> values) {
  std::unordered_map<std::uint64_t, int> counts;
  counts.reserve(values.size());
  for (std::uint64_t v : values) ++counts[v];
  std::size_t unique = 0;
  for (std::uint64_t v : values) {
    if (counts.at(v) == 1) ++unique;
  }
  return unique;
}

double LemmaB8Bound(std::size_t k, std::size_t set_size) {
  NB_REQUIRE(set_size > 0, "Lemma B.8 requires a non-empty set");
  const double ratio = static_cast<double>(k) / static_cast<double>(set_size);
  return 1.5 * (1.0 - std::exp(-ratio));
}

}  // namespace noisybeeps
