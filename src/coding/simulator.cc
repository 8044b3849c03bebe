#include "coding/simulator.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>

#include "util/require.h"

namespace noisybeeps {

namespace {

// True when a is lexicographically less than b, bit 0 first; a proper
// prefix sorts first.  The first differing bit is the lowest set bit of the
// XOR of the first differing word, masked to the common length.
bool BitsLess(const BitString& a, const BitString& b) {
  const std::size_t common = std::min(a.size(), b.size());
  const std::span<const std::uint64_t> aw = a.words();
  const std::span<const std::uint64_t> bw = b.words();
  const std::size_t words =
      (common + BitString::kWordBits - 1) / BitString::kWordBits;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t diff = aw[w] ^ bw[w];
    if (w + 1 == words) diff &= BitString::TailMask(common);
    if (diff != 0) return ((bw[w] >> std::countr_zero(diff)) & 1u) != 0;
  }
  return a.size() < b.size();
}

}  // namespace

std::string SimulationStatusName(SimulationStatus status) {
  switch (status) {
    case SimulationStatus::kOk:
      return "ok";
    case SimulationStatus::kDegraded:
      return "degraded";
    case SimulationStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

SimulationVerdict ComputeVerdict(const std::vector<BitString>& transcripts,
                                 int full_length, bool budget_exhausted) {
  NB_REQUIRE(!transcripts.empty(), "need at least one transcript");
  const int n = static_cast<int>(transcripts.size());

  SimulationVerdict verdict;
  verdict.budget_exhausted = budget_exhausted;
  verdict.agreement.assign(n, 0);
  // Sorted by transcript, the parties that agree form runs: O(n log n)
  // word-wise compares.  The first largest run holds the lexicographically
  // least of the plurality transcripts, which is the tie-break.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&transcripts](int a, int b) {
    return BitsLess(transcripts[a], transcripts[b]);
  });
  int best = order[0];
  for (int begin = 0; begin < n;) {
    const BitString& group = transcripts[order[begin]];
    int end = begin + 1;
    while (end < n && transcripts[order[end]] == group) ++end;
    const int size = end - begin;
    for (int k = begin; k < end; ++k) verdict.agreement[order[k]] = size;
    if (size > verdict.majority_size) {
      verdict.majority_size = size;
      best = order[begin];
    }
    begin = end;
  }
  verdict.majority_transcript = transcripts[best];

  if (!budget_exhausted && verdict.majority_size == n &&
      static_cast<int>(verdict.majority_transcript.size()) == full_length) {
    verdict.status = SimulationStatus::kOk;
  } else if (2 * verdict.majority_size > n) {
    verdict.status = SimulationStatus::kDegraded;
  } else {
    verdict.status = SimulationStatus::kFailed;
  }
  return verdict;
}

}  // namespace noisybeeps
