#include "util/bitstring.h"

#include "util/math.h"
#include "util/require.h"

namespace noisybeeps {

BitString::BitString(std::initializer_list<int> bits) {
  words_.reserve(WordCount(bits.size()));
  for (int b : bits) {
    NB_REQUIRE(b == 0 || b == 1, "bits must be 0 or 1");
    PushBack(b != 0);
  }
}

BitString BitString::FromString(const std::string& bits) {
  BitString out;
  out.words_.reserve(WordCount(bits.size()));
  for (char c : bits) {
    NB_REQUIRE(c == '0' || c == '1', "bit characters must be '0' or '1'");
    out.PushBack(c == '1');
  }
  return out;
}

bool BitString::operator[](std::size_t pos) const {
  NB_REQUIRE(pos < size_, "bit index out of range");
  return (words_[pos / 64] >> (pos % 64)) & 1u;
}

void BitString::Set(std::size_t pos, bool value) {
  NB_REQUIRE(pos < size_, "bit index out of range");
  const std::uint64_t mask = std::uint64_t{1} << (pos % 64);
  if (value) {
    words_[pos / 64] |= mask;
  } else {
    words_[pos / 64] &= ~mask;
  }
}

void BitString::PushBack(bool bit) {
  if (size_ % 64 == 0) words_.push_back(0);
  if (bit) words_[size_ / 64] |= std::uint64_t{1} << (size_ % 64);
  ++size_;
}

void BitString::Append(const BitString& other) {
  if (this == &other) {
    // The word loop below would read words it has already written.
    const BitString copy = other;
    Append(copy);
    return;
  }
  // Word k of `other` lands at bit `shift` of word `dest + k` and spills its
  // top `shift` bits into the next word.  The slack of the old last word is
  // zero and resize zero-fills, so OR-ing in place is exact; the spill past
  // the new last word is zero by `other`'s tail-bit invariant.
  const std::size_t shift = size_ % kWordBits;
  std::size_t dest = size_ / kWordBits;
  size_ += other.size_;
  words_.resize(WordCount(size_), 0);
  for (const std::uint64_t word : other.words_) {
    words_[dest] |= word << shift;
    ++dest;
    if (shift != 0 && dest < words_.size()) {
      words_[dest] |= word >> (kWordBits - shift);
    }
  }
}

void BitString::Truncate(std::size_t new_size) {
  NB_REQUIRE(new_size <= size_, "cannot truncate to a larger size");
  size_ = new_size;
  words_.resize(WordCount(size_));
  ClearSlack();
}

BitString BitString::Prefix(std::size_t count) const {
  NB_REQUIRE(count <= size_, "prefix longer than string");
  BitString out = *this;
  out.Truncate(count);
  return out;
}

BitString BitString::Substring(std::size_t begin, std::size_t end) const {
  NB_REQUIRE(begin <= end && end <= size_, "invalid substring range");
  BitString out;
  out.words_.reserve(WordCount(end - begin));
  for (std::size_t i = begin; i < end; ++i) out.PushBack((*this)[i]);
  return out;
}

std::uint64_t BitString::Word(std::size_t wi) const {
  NB_REQUIRE(wi < words_.size(), "word index out of range");
  return words_[wi];
}

void BitString::SetWord(std::size_t wi, std::uint64_t value) {
  NB_REQUIRE(wi < words_.size(), "word index out of range");
  words_[wi] = value;
  // Unconditionally re-establish the tail-bit invariant: masking only the
  // last word keeps a full-word write O(1) while making it impossible for
  // a caller to park garbage in the slack.
  if (wi + 1 == words_.size()) words_.back() &= TailMask(size_);
}

void BitString::Resize(std::size_t size) {
  if (size <= size_) {
    Truncate(size);
    return;
  }
  // Growth appends zero bits: the slack of the old last word is zero by
  // invariant, and vector::resize zero-fills the new words.
  words_.resize(WordCount(size), 0);
  size_ = size;
}

std::size_t BitString::PopCount() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) {
    total += static_cast<std::size_t>(WordPopCount(w));
  }
  return total;
}

std::size_t BitString::HammingDistance(const BitString& other) const {
  NB_REQUIRE(size_ == other.size_,
             "Hamming distance requires equal-length strings");
  std::size_t total = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    total +=
        static_cast<std::size_t>(WordPopCount(words_[w] ^ other.words_[w]));
  }
  return total;
}

bool BitString::StartsWith(const BitString& prefix) const {
  if (prefix.size_ > size_) return false;
  for (std::size_t i = 0; i < prefix.size_; ++i) {
    if ((*this)[i] != prefix[i]) return false;
  }
  return true;
}

std::string BitString::ToString() const {
  std::string out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i] ? '1' : '0');
  return out;
}

void BitString::ClearSlack() {
  if (size_ % 64 != 0 && !words_.empty()) {
    const std::uint64_t mask =
        (std::uint64_t{1} << (size_ % 64)) - 1;
    words_.back() &= mask;
  }
}

bool operator==(const BitString& a, const BitString& b) {
  return a.size_ == b.size_ && a.words_ == b.words_;
}

}  // namespace noisybeeps
