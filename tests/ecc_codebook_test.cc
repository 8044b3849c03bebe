#include "ecc/codebook.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "ecc/code.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(CodebookCode, ExplicitBookRoundTrips) {
  std::vector<BitString> book{BitString::FromString("0000"),
                              BitString::FromString("1111"),
                              BitString::FromString("0110")};
  const CodebookCode code(std::move(book));
  EXPECT_EQ(code.num_messages(), 3u);
  EXPECT_EQ(code.codeword_length(), 4u);
  for (std::uint64_t m = 0; m < 3; ++m) {
    EXPECT_EQ(code.Decode(code.Encode(m)), m);
  }
}

TEST(CodebookCode, RejectsInvalidBooks) {
  EXPECT_THROW(CodebookCode({BitString::FromString("01")}),
               std::invalid_argument);  // too few words
  EXPECT_THROW(CodebookCode({BitString::FromString("01"),
                             BitString::FromString("011")}),
               std::invalid_argument);  // ragged lengths
  EXPECT_THROW(CodebookCode({BitString::FromString("01"),
                             BitString::FromString("01")}),
               std::invalid_argument);  // duplicates
  EXPECT_THROW(CodebookCode({BitString(), BitString()}),
               std::invalid_argument);  // empty words
}

TEST(CodebookCode, RandomConstructionIsDeterministicInSeed) {
  const CodebookCode a = CodebookCode::Random(17, 24, 99);
  const CodebookCode b = CodebookCode::Random(17, 24, 99);
  for (std::uint64_t m = 0; m < 17; ++m) {
    EXPECT_EQ(a.Encode(m), b.Encode(m));
  }
  const CodebookCode c = CodebookCode::Random(17, 24, 100);
  std::size_t same = 0;
  for (std::uint64_t m = 0; m < 17; ++m) same += a.Encode(m) == c.Encode(m);
  EXPECT_LT(same, 3u);
}

TEST(CodebookCode, RandomBookHasReasonableDistance) {
  // Random codes of length 8*log2(q) concentrate near relative distance
  // 1/2; anything below L/5 would be an implementation bug.
  const CodebookCode code = CodebookCode::Random(33, 48, 7);
  EXPECT_GE(MinimumDistance(code), 48u / 5);
}

TEST(CodebookCode, DecodeNearestTiesBreakLow) {
  std::vector<BitString> book{BitString::FromString("0000"),
                              BitString::FromString("0011")};
  const CodebookCode code(std::move(book));
  // "0001" is at distance 1 from both; message 0 must win.
  EXPECT_EQ(code.Decode(BitString::FromString("0001")), 0u);
}

TEST(CodebookCode, DecodeRejectsWrongLength) {
  const CodebookCode code = CodebookCode::Random(4, 10, 1);
  EXPECT_THROW((void)code.Decode(BitString::FromString("01")),
               std::invalid_argument);
}

TEST(GilbertVarshamov, GuaranteesMinimumDistance) {
  const std::size_t d = 9;
  const CodebookCode code = CodebookCode::GilbertVarshamov(16, 32, d, 5);
  EXPECT_GE(MinimumDistance(code), d);
}

TEST(GilbertVarshamov, ImpossibleParametersThrow) {
  // 2^8 = 256 codewords of length 8 at distance 8 means all-distinct
  // repetitions -- impossible beyond 2 words.
  EXPECT_THROW(
      (void)CodebookCode::GilbertVarshamov(10, 8, 8, 1),
      std::runtime_error);
}

TEST(GilbertVarshamov, CorrectsHalfDistanceErrors) {
  const std::size_t d = 11;
  const CodebookCode code = CodebookCode::GilbertVarshamov(8, 40, d, 6);
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t msg = rng.UniformInt(code.num_messages());
    BitString word = code.Encode(msg);
    // Up to (d-1)/2 errors are always correctable.
    for (std::size_t e = 0; e < (d - 1) / 2; ++e) {
      const std::size_t p = rng.UniformInt(word.size());
      word.Set(p, !word[p]);
    }
    // Distinct positions not guaranteed above, so the effective error
    // count is <= (d-1)/2 -- decoding must still succeed.
    EXPECT_EQ(code.Decode(word), msg) << trial;
  }
}

class CodebookBscTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(CodebookBscTest, MlDecodingSurvivesBscNoise) {
  const auto [q, eps] = GetParam();
  // Length ~ 8 * log2(q): generous rate, so decode failures should be
  // rare at these noise levels.
  std::size_t length = 8;
  while ((1u << (length / 8)) < static_cast<unsigned>(q)) length += 8;
  length += 24;
  const CodebookCode code = CodebookCode::Random(q, length, 42);
  Rng rng(4242);
  int failures = 0;
  constexpr int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t msg = rng.UniformInt(q);
    BitString word = code.Encode(msg);
    for (std::size_t i = 0; i < word.size(); ++i) {
      if (rng.Bernoulli(eps)) word.Set(i, !word[i]);
    }
    failures += code.Decode(word) != msg;
  }
  EXPECT_LE(failures, kTrials / 10)
      << "q=" << q << " eps=" << eps << " L=" << length;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodebookBscTest,
    ::testing::Combine(::testing::Values(5, 17, 65),
                       ::testing::Values(0.02, 0.05, 0.10)));

// --- decode against a linear scan ------------------------------------------

// The specification of Decode: the lowest index among the codewords at
// minimum Hamming distance, found by scanning the BitString codewords.
std::uint64_t LinearScanDecode(const std::vector<BitString>& book,
                               const BitString& received) {
  std::uint64_t best = 0;
  for (std::uint64_t m = 1; m < book.size(); ++m) {
    if (book[m].HammingDistance(received) <
        book[best].HammingDistance(received)) {
      best = m;
    }
  }
  return best;
}

std::vector<BitString> BookOf(const CodebookCode& code) {
  std::vector<BitString> book;
  for (std::uint64_t m = 0; m < code.num_messages(); ++m) {
    book.push_back(code.Encode(m));
  }
  return book;
}

BitString RandomBits(std::size_t length, Rng& rng) {
  BitString word(length);
  for (std::size_t i = 0; i < length; ++i) word.Set(i, rng.Bit());
  return word;
}

class CodebookScanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodebookScanTest, DecodeEqualsLinearScanOnRandomWords) {
  const std::size_t length = GetParam();
  const std::uint64_t q = length == 1 ? 2 : 33;
  const CodebookCode code = CodebookCode::Random(q, length, 17 + length);
  const std::vector<BitString> book = BookOf(code);
  Rng rng(99 + length);
  for (int trial = 0; trial < 400; ++trial) {
    const BitString received = RandomBits(length, rng);
    const std::uint64_t expected = LinearScanDecode(book, received);
    EXPECT_EQ(code.Decode(received), expected)
        << "L=" << length << " trial " << trial;
    EXPECT_EQ(code.DecodeWords(received.words()), expected)
        << "L=" << length << " trial " << trial;
  }
  for (std::uint64_t m = 0; m < q; ++m) {
    EXPECT_EQ(code.Decode(book[m]), m) << "L=" << length;
    const std::span<const std::uint64_t> packed = code.CodewordWords(m);
    EXPECT_TRUE(std::equal(packed.begin(), packed.end(),
                           book[m].words().begin(), book[m].words().end()))
        << "L=" << length << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CodebookScanTest,
                         ::testing::Values(1, 63, 64, 65, 128, 130));

class CodebookTieTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodebookTieTest, ExactTiesBreakToTheLowestIndex) {
  // Codeword 1 is codeword 3 with 2k bits flipped; flipping k of them in
  // codeword 3 gives a word at distance k from both.  Index 1 must win
  // whenever no other codeword is as close, and the scan must agree always.
  const std::size_t length = GetParam();
  Rng rng(5 + length);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<BitString> book;
    while (book.size() < 6) {
      BitString word = RandomBits(length, rng);
      bool fresh = true;
      for (const BitString& w : book) fresh = fresh && w != word;
      if (fresh) book.push_back(std::move(word));
    }
    const std::size_t k = 1 + rng.UniformInt(length / 2);
    BitString twin = book[3];
    BitString received = book[3];
    for (std::size_t flipped = 0; flipped < 2 * k;) {
      const std::size_t p = rng.UniformInt(length);
      if (twin[p] != book[3][p]) continue;
      twin.Set(p, !twin[p]);
      if (flipped < k) received.Set(p, !received[p]);
      ++flipped;
    }
    bool fresh = true;
    for (const BitString& w : book) fresh = fresh && w != twin;
    if (!fresh) continue;
    book[1] = twin;
    ASSERT_EQ(book[1].HammingDistance(received),
              book[3].HammingDistance(received));
    const CodebookCode code(book);
    const std::uint64_t expected = LinearScanDecode(book, received);
    EXPECT_EQ(code.Decode(received), expected) << "L=" << length;
    EXPECT_NE(expected, 3u);
    EXPECT_EQ(code.Decode(book[3]), 3u);
  }
}

// Length 1 holds only two words, so it cannot tie; the scan test covers it.
INSTANTIATE_TEST_SUITE_P(Lengths, CodebookTieTest,
                         ::testing::Values(63, 64, 65, 128, 130));

// --- pinned books ----------------------------------------------------------

// FNV-1a over every codeword's bits in message order.
std::uint64_t BookDigest(const CodebookCode& code) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint64_t m = 0; m < code.num_messages(); ++m) {
    const BitString word = code.Encode(m);
    for (std::size_t i = 0; i < word.size(); ++i) {
      hash = (hash ^ (word[i] ? 1u : 0u)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

TEST(CodebookCode, RandomBooksArePinned) {
  // The owner-phase books of the rewind scheme at n = 128 and n = 1024
  // (chunk_len = n, length factor 6, seed 0x5eedbee9 + chunk_len).  The
  // second needs two words per codeword.
  EXPECT_EQ(BookDigest(CodebookCode::Random(129, 54, 0x5eedbee9 + 128)),
            0xd468a3398765b96bULL);
  EXPECT_EQ(BookDigest(CodebookCode::Random(1025, 72, 0x5eedbee9 + 1024)),
            0x932c6cc526ee86cdULL);
}

}  // namespace
}  // namespace noisybeeps
