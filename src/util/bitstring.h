// BitString: a compact, append-friendly sequence of bits.
//
// Transcripts of beeping protocols, codewords of binary error-correcting
// codes, and per-party beep histories are all BitStrings.  The type is a
// regular value type (copyable, movable, equality-comparable) backed by
// packed 64-bit words, with the operations the rest of the library needs:
// append, random access, prefix extraction, concatenation, Hamming
// distance, and population count.
#ifndef NOISYBEEPS_UTIL_BITSTRING_H_
#define NOISYBEEPS_UTIL_BITSTRING_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace noisybeeps {

class BitString {
 public:
  // Bits per backing word.  The word-parallel round engine packs one
  // party per bit, 64 parties per word.
  static constexpr std::size_t kWordBits = 64;
  BitString() = default;

  // A string of `size` zero bits.
  explicit BitString(std::size_t size) : size_(size), words_(WordCount(size)) {}

  // Construction from explicit bits, e.g. BitString({1, 0, 1}).
  BitString(std::initializer_list<int> bits);

  // Parses a string of '0'/'1' characters.  Throws on any other character.
  static BitString FromString(const std::string& bits);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Random access.  Precondition: pos < size().
  [[nodiscard]] bool operator[](std::size_t pos) const;
  void Set(std::size_t pos, bool value);

  // Pre-allocates backing storage for at least `bits` total bits, so a
  // loop of PushBack calls (the per-round transcript append in the
  // executors) never reallocates mid-run.  Size is unchanged.
  void Reserve(std::size_t bits) { words_.reserve(WordCount(bits)); }

  // Appends one bit at the end.
  void PushBack(bool bit);

  // Appends all of `other` at the end, a word at a time (shift and OR).
  // `a.Append(a)` doubles `a`.
  void Append(const BitString& other);

  // Keeps the first `new_size` bits.  Precondition: new_size <= size().
  void Truncate(std::size_t new_size);

  // The first `count` bits as a new BitString.  Precondition: count <= size().
  [[nodiscard]] BitString Prefix(std::size_t count) const;

  // Bits [begin, end) as a new BitString.  Precondition: begin <= end <= size.
  [[nodiscard]] BitString Substring(std::size_t begin, std::size_t end) const;

  // --- the word-span API ----------------------------------------------
  //
  // The packed representation is part of the public contract: bit i lives
  // at bit (i % 64) of word (i / 64), and the TAIL-BIT INVARIANT holds at
  // all times -- every bit of the last word at position >= size() % 64 is
  // zero.  Every mutator (Set, PushBack, Append, Truncate, FromString,
  // SetWord, Resize) re-establishes the invariant, so word-level readers
  // (PopCount, HammingDistance, operator==, the word-parallel round
  // engine's OR/popcount loops) never see garbage in the slack.  The
  // property tests in tests/util_bitstring_test.cc drive randomized
  // mutation sequences against a bit-by-bit reference to hold this to
  // account.

  // Number of backing words, WordCount(size()).
  [[nodiscard]] std::size_t word_count() const { return words_.size(); }

  // Read-only view of the packed words (tail-bit invariant guaranteed).
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return words_;
  }

  // Word `wi` of the packed representation.  Precondition: wi < word_count().
  [[nodiscard]] std::uint64_t Word(std::size_t wi) const;

  // Overwrites word `wi` wholesale.  Bits beyond size() in the last word
  // are masked off, so the tail-bit invariant survives every write -- a
  // caller cannot smuggle garbage into the slack even on purpose.
  // Precondition: wi < word_count().
  void SetWord(std::size_t wi, std::uint64_t value);

  // Grows (with zero bits) or shrinks to exactly `size` bits.
  void Resize(std::size_t size);

  // The mask of in-range bits for the LAST word of a `bits`-bit string
  // (all-ones when bits is a multiple of 64).
  [[nodiscard]] static std::uint64_t TailMask(std::size_t bits) {
    const std::size_t rem = bits % kWordBits;
    return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
  }

  // Number of 1 bits.
  [[nodiscard]] std::size_t PopCount() const;

  // Number of positions where *this and other differ.
  // Precondition: same size.
  [[nodiscard]] std::size_t HammingDistance(const BitString& other) const;

  // True iff `prefix` equals the first prefix.size() bits of *this.
  [[nodiscard]] bool StartsWith(const BitString& prefix) const;

  // "0101..." rendering (for logs and test failure messages).
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const BitString& a, const BitString& b);
  friend bool operator!=(const BitString& a, const BitString& b) {
    return !(a == b);
  }

 private:
  static std::size_t WordCount(std::size_t bits) { return (bits + 63) / 64; }
  // Zeroes the unused high bits of the last word so that equality and
  // popcount can operate word-wise.
  void ClearSlack();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_UTIL_BITSTRING_H_
