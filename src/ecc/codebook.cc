#include "ecc/codebook.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/math.h"
#include "util/require.h"

namespace noisybeeps {
namespace {

std::size_t WordsFor(std::size_t length) {
  return (length + BitString::kWordBits - 1) / BitString::kWordBits;
}

// Fills `word` with `length` fresh bits, one rng.Bit() per position in
// order -- the draw order the books have always used.
void DrawWord(std::size_t length, Rng& rng, std::span<std::uint64_t> word) {
  std::fill(word.begin(), word.end(), 0);
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.Bit()) {
      word[i / BitString::kWordBits] |= std::uint64_t{1}
                                        << (i % BitString::kWordBits);
    }
  }
}

std::size_t Distance(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t stride) {
  std::size_t d = 0;
  for (std::size_t k = 0; k < stride; ++k) {
    d += static_cast<std::size_t>(WordPopCount(a[k] ^ b[k]));
  }
  return d;
}

// The smallest distance from `word` to a codeword packed in `book`
// (SIZE_MAX for an empty book): 0 iff the book holds `word`.  Building a
// book visits every pair of its words once this way, so the minimum
// distance comes with the duplicate check.
std::size_t NearestDistance(std::span<const std::uint64_t> book,
                            std::span<const std::uint64_t> word) {
  std::size_t nearest = std::numeric_limits<std::size_t>::max();
  for (std::size_t at = 0; at < book.size(); at += word.size()) {
    nearest = std::min(nearest,
                       Distance(book.data() + at, word.data(), word.size()));
  }
  return nearest;
}

}  // namespace

CodebookCode::CodebookCode(const std::vector<BitString>& codebook)
    : length_(0),
      stride_(0),
      num_messages_(codebook.size()),
      min_distance_(std::numeric_limits<std::size_t>::max()) {
  NB_REQUIRE(codebook.size() >= 2, "codebook needs at least two words");
  length_ = codebook.front().size();
  NB_REQUIRE(length_ > 0, "codewords must be non-empty");
  stride_ = WordsFor(length_);
  words_.reserve(codebook.size() * stride_);
  for (const BitString& word : codebook) {
    NB_REQUIRE(word.size() == length_, "codeword lengths differ");
    words_.insert(words_.end(), word.words().begin(), word.words().end());
  }
  const std::span<const std::uint64_t> book(words_);
  for (std::size_t at = stride_; at < book.size(); at += stride_) {
    const std::size_t d =
        NearestDistance(book.first(at), book.subspan(at, stride_));
    NB_REQUIRE(d > 0, "duplicate codewords");
    min_distance_ = std::min(min_distance_, d);
  }
}

CodebookCode::CodebookCode(std::size_t length,
                           std::vector<std::uint64_t> words,
                           std::size_t min_distance)
    : length_(length),
      stride_(WordsFor(length)),
      num_messages_(words.size() / stride_),
      min_distance_(min_distance),
      words_(std::move(words)) {}

CodebookCode CodebookCode::Random(std::uint64_t num_messages,
                                  std::size_t length, std::uint64_t seed) {
  NB_REQUIRE(num_messages >= 2, "need at least two messages");
  NB_REQUIRE(length >= 64 || num_messages <= (std::uint64_t{1} << length),
             "message space larger than word space");
  Rng rng(seed);
  std::vector<std::uint64_t> candidate(WordsFor(length));
  std::vector<std::uint64_t> book;
  book.reserve(num_messages * candidate.size());
  std::size_t min_distance = std::numeric_limits<std::size_t>::max();
  while (book.size() < num_messages * candidate.size()) {
    DrawWord(length, rng, candidate);
    const std::size_t d = NearestDistance(book, candidate);
    if (d > 0) {
      book.insert(book.end(), candidate.begin(), candidate.end());
      min_distance = std::min(min_distance, d);
    }
  }
  return CodebookCode(length, std::move(book), min_distance);
}

CodebookCode CodebookCode::GilbertVarshamov(std::uint64_t num_messages,
                                            std::size_t length,
                                            std::size_t min_distance,
                                            std::uint64_t seed) {
  NB_REQUIRE(num_messages >= 2, "need at least two messages");
  NB_REQUIRE(min_distance >= 1 && min_distance <= length,
             "minimum distance out of range");
  Rng rng(seed);
  std::vector<std::uint64_t> candidate(WordsFor(length));
  std::vector<std::uint64_t> book;
  book.reserve(num_messages * candidate.size());
  // Generous attempt budget: random candidates succeed with constant
  // probability while below the GV bound.
  const std::uint64_t max_attempts = 4096 * num_messages + 65536;
  std::uint64_t attempts = 0;
  std::size_t book_distance = std::numeric_limits<std::size_t>::max();
  while (book.size() < num_messages * candidate.size()) {
    if (++attempts > max_attempts) {
      throw std::runtime_error(
          "GilbertVarshamov: could not build codebook; parameters exceed the "
          "GV bound for this length/distance");
    }
    DrawWord(length, rng, candidate);
    const std::size_t d = NearestDistance(book, candidate);
    if (d >= min_distance) {
      book.insert(book.end(), candidate.begin(), candidate.end());
      book_distance = std::min(book_distance, d);
    }
  }
  return CodebookCode(length, std::move(book), book_distance);
}

std::span<const std::uint64_t> CodebookCode::CodewordWords(
    std::uint64_t message) const {
  NB_REQUIRE(message < num_messages_, "message out of range");
  return std::span<const std::uint64_t>(words_).subspan(message * stride_,
                                                        stride_);
}

std::uint64_t CodebookCode::DecodeWords(
    std::span<const std::uint64_t> received) const {
  NB_REQUIRE(received.size() == stride_, "received word has wrong length");
  std::uint64_t best_message = 0;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  const std::uint64_t* codeword = words_.data();
  for (std::uint64_t m = 0; m < num_messages_; ++m, codeword += stride_) {
    const std::size_t d = Distance(codeword, received.data(), stride_);
    if (d < best_distance) {
      best_distance = d;
      best_message = m;
    }
  }
  return best_message;
}

std::uint64_t CodebookCode::DecodeWords(
    std::span<const std::uint64_t> received, std::uint64_t hint,
    std::int64_t* full_scans) const {
  NB_REQUIRE(received.size() == stride_, "received word has wrong length");
  if (2 * Distance(CodewordWords(hint).data(), received.data(), stride_) <
      min_distance_) {
    return hint;
  }
  if (full_scans != nullptr) ++*full_scans;
  return DecodeWords(received);
}

BitString CodebookCode::Encode(std::uint64_t message) const {
  const std::span<const std::uint64_t> codeword = CodewordWords(message);
  BitString word(length_);
  for (std::size_t k = 0; k < stride_; ++k) word.SetWord(k, codeword[k]);
  return word;
}

std::uint64_t CodebookCode::Decode(const BitString& received) const {
  NB_REQUIRE(received.size() == length_, "received word has wrong length");
  return DecodeWords(received.words());
}

std::string CodebookCode::name() const {
  return "Codebook(q=" + std::to_string(num_messages_) +
         ",L=" + std::to_string(length_) + ")";
}

}  // namespace noisybeeps
