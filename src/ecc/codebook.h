// Explicit-codebook codes with exact maximum-likelihood decoding.
//
// Algorithm 1 needs a code C : [n] ∪ {Next} -> {0,1}^{Θ(log n)} with good
// relative distance.  For such small message spaces the pragmatic optimum
// is an explicit codebook: a seeded random construction (which achieves the
// Gilbert-Varshamov bound with high probability) or a greedy
// Gilbert-Varshamov construction with a *guaranteed* minimum distance.
// Decoding is exact nearest-codeword search, which is the maximum
// likelihood rule on any binary-symmetric channel with flip probability
// below 1/2.  Every construction records the book's minimum distance
// d_min, so a decode given a guessed message can skip the search when the
// received word lies within d_min / 2 of the guess's codeword.
//
// The book is one contiguous array of packed words, ceil(L/64) per
// codeword and packed like BitString::words(), so a decode is XOR and
// popcount over that array at any length L.  Encode and Decode are
// BitString adapters over CodewordWords and DecodeWords.
#ifndef NOISYBEEPS_ECC_CODEBOOK_H_
#define NOISYBEEPS_ECC_CODEBOOK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ecc/code.h"
#include "util/rng.h"

namespace noisybeeps {

class CodebookCode final : public BinaryCode {
 public:
  // Copies an explicit codebook.  Preconditions: at least two codewords,
  // all of equal positive length, all distinct.
  explicit CodebookCode(const std::vector<BitString>& codebook);

  // A codebook of `num_messages` iid uniform codewords of `length` bits.
  // Codewords are re-drawn on collision so the book is always valid.
  static CodebookCode Random(std::uint64_t num_messages, std::size_t length,
                             std::uint64_t seed);

  // Greedy Gilbert-Varshamov construction: scans seeded-random candidates
  // and keeps those at Hamming distance >= min_distance from all kept
  // words.  Throws std::runtime_error if the book cannot be filled within
  // the attempt budget (the parameters are beyond the GV bound).
  static CodebookCode GilbertVarshamov(std::uint64_t num_messages,
                                       std::size_t length,
                                       std::size_t min_distance,
                                       std::uint64_t seed);

  [[nodiscard]] std::uint64_t num_messages() const override {
    return num_messages_;
  }
  [[nodiscard]] std::size_t codeword_length() const override {
    return length_;
  }

  // Packed words per codeword: ceil(codeword_length() / 64).
  [[nodiscard]] std::size_t words_per_codeword() const { return stride_; }

  // The smallest Hamming distance between two codewords, recorded while
  // the book was built.
  [[nodiscard]] std::size_t min_distance() const { return min_distance_; }

  // The codeword of `message`: bit t at bit t % 64 of word t / 64, bits
  // past codeword_length() zero.  Precondition: message < num_messages().
  [[nodiscard]] std::span<const std::uint64_t> CodewordWords(
      std::uint64_t message) const;

  // Decode on a packed word (ties break toward the smaller message index).
  // Bits past codeword_length() add the same count to every distance, so
  // they never change the result.
  // Precondition: received.size() == words_per_codeword().
  [[nodiscard]] std::uint64_t DecodeWords(
      std::span<const std::uint64_t> received) const;

  // DecodeWords(received), starting from a guess.  When
  // 2 * d(received, C(hint)) < min_distance(), every other codeword is
  // farther than d_min - d(received, C(hint)) > d(received, C(hint)), so
  // C(hint) is the unique nearest codeword: the call returns `hint`
  // without a scan.  Otherwise it scans, and adds one to `*full_scans`
  // when that is non-null.  The result is the same for every hint; a good
  // guess only saves the scan.  Bits past codeword_length() can only
  // turn the shortcut off.
  // Preconditions: as DecodeWords(received), and hint < num_messages().
  [[nodiscard]] std::uint64_t DecodeWords(
      std::span<const std::uint64_t> received, std::uint64_t hint,
      std::int64_t* full_scans = nullptr) const;

  [[nodiscard]] BitString Encode(std::uint64_t message) const override;
  [[nodiscard]] std::uint64_t Decode(const BitString& received) const override;
  [[nodiscard]] std::string name() const override;

 private:
  // Takes a packed book of distinct codewords and its minimum distance
  // (the factories' duty).
  CodebookCode(std::size_t length, std::vector<std::uint64_t> words,
               std::size_t min_distance);

  std::size_t length_;
  std::size_t stride_;
  std::uint64_t num_messages_;
  std::size_t min_distance_;
  // Codeword m is words_[m * stride_, (m + 1) * stride_).
  std::vector<std::uint64_t> words_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_ECC_CODEBOOK_H_
