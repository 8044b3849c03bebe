#include "ecc/codebook.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
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

TEST_P(CodebookScanTest, HintedDecodeEqualsLinearScanForEveryHint) {
  // Random words, and codewords through 5 % noise, decoded under every
  // hint: the hint of the word's own message (certified unless the noise
  // came near half the minimum distance) and every wrong one.
  const std::size_t length = GetParam();
  const std::uint64_t q = length == 1 ? 2 : 33;
  const CodebookCode code = CodebookCode::Random(q, length, 17 + length);
  const std::vector<BitString> book = BookOf(code);
  Rng rng(77 + length);
  std::int64_t decodes = 0;
  std::int64_t full_scans = 0;
  for (int trial = 0; trial < 200; ++trial) {
    BitString received = RandomBits(length, rng);
    if (trial % 2 == 1) {
      received = book[rng.UniformInt(q)];
      for (std::size_t i = 0; i < length; ++i) {
        if (rng.Bernoulli(0.05)) received.Set(i, !received[i]);
      }
    }
    const std::uint64_t expected = LinearScanDecode(book, received);
    for (std::uint64_t hint = 0; hint < q; ++hint) {
      ASSERT_EQ(code.DecodeWords(received.words(), hint, &full_scans),
                expected)
          << "L=" << length << " trial " << trial << " hint " << hint;
      ++decodes;
    }
  }
  // Both branches ran: some hints were certified, some were scanned.
  EXPECT_GT(full_scans, 0) << "L=" << length;
  EXPECT_LT(full_scans, decodes) << "L=" << length;
}

INSTANTIATE_TEST_SUITE_P(Lengths, CodebookScanTest,
                         ::testing::Values(1, 63, 64, 65, 128, 130));

// --- the certificate ---------------------------------------------------------

TEST(CodebookCode, MinDistanceIsThePairwiseMinimum) {
  // MinimumDistance enumerates every pair; min_distance() was recorded
  // while the book was built.
  for (const auto& [q, length] : std::vector<std::pair<std::uint64_t,
                                                       std::size_t>>{
           {2, 1}, {3, 2}, {17, 24}, {33, 48}, {33, 65}, {129, 54},
           {65, 130}}) {
    const CodebookCode code = CodebookCode::Random(q, length, 5 + length);
    EXPECT_EQ(code.min_distance(), MinimumDistance(code))
        << "Random q=" << q << " L=" << length;
  }
  for (const std::size_t d : {1, 5, 9, 12}) {
    const CodebookCode code = CodebookCode::GilbertVarshamov(16, 32, d, 5);
    EXPECT_EQ(code.min_distance(), MinimumDistance(code)) << "GV d=" << d;
    EXPECT_GE(code.min_distance(), d);
  }
  const CodebookCode explicit_book({BitString::FromString("0000"),
                                    BitString::FromString("1111"),
                                    BitString::FromString("0110")});
  EXPECT_EQ(explicit_book.min_distance(), 2u);
  EXPECT_EQ(explicit_book.min_distance(), MinimumDistance(explicit_book));
}

// `word` with the first `count` of the positions where it differs from
// `toward` set to `toward`'s bits.
BitString StepToward(BitString word, const BitString& toward,
                     std::size_t count) {
  for (std::size_t i = 0; i < word.size() && count > 0; ++i) {
    if (word[i] != toward[i]) {
      word.Set(i, toward[i]);
      --count;
    }
  }
  return word;
}

TEST(CodebookCode, CertificateEndsAtHalfTheMinimumDistance) {
  // A word r steps from codeword 1 toward codeword 0 is certified for
  // hint 1 iff 2r < d_min, i.e. up to r = floor((d_min - 1) / 2).  Even
  // d_min 4 puts the first uncertified word at distance 2 from both
  // codewords: an exact tie, which breaks to index 0 whatever the hint.
  // Odd d_min 5 has no tie; its first uncertified word is nearer
  // codeword 0.  The default owner code at chunk 128 (d_min 14) takes the
  // same walk.
  std::vector<CodebookCode> codes;
  codes.emplace_back(std::vector<BitString>{
      BitString::FromString("000000000000"),
      BitString::FromString("111100000000"),
      BitString::FromString("000011111111")});
  codes.emplace_back(std::vector<BitString>{
      BitString::FromString("000000000000"),
      BitString::FromString("111110000000"),
      BitString::FromString("000001111111")});
  codes.push_back(CodebookCode::Random(129, 54, 0x5eedbee9 + 128));
  ASSERT_EQ(codes[0].min_distance(), 4u);
  ASSERT_EQ(codes[1].min_distance(), 5u);
  ASSERT_EQ(codes[2].min_distance(), 14u);
  for (std::size_t c = 0; c < codes.size(); ++c) {
    const CodebookCode& code = codes[c];
    const std::vector<BitString> book = BookOf(code);
    const std::size_t radius = (code.min_distance() - 1) / 2;
    for (const std::size_t r : {radius, radius + 1}) {
      const BitString received = StepToward(book[1], book[0], r);
      ASSERT_EQ(received.HammingDistance(book[1]), r);
      const std::uint64_t expected = LinearScanDecode(book, received);
      if (r == radius) {
        EXPECT_EQ(expected, 1u) << code.name();
      } else if (c < 2) {
        EXPECT_EQ(expected, 0u) << code.name();
      }
      std::int64_t full_scans = 0;
      EXPECT_EQ(code.DecodeWords(received.words(), 1, &full_scans), expected)
          << code.name() << " r=" << r;
      EXPECT_EQ(full_scans, r == radius ? 0 : 1) << code.name() << " r=" << r;
      for (std::uint64_t hint = 0; hint < code.num_messages(); ++hint) {
        EXPECT_EQ(code.DecodeWords(received.words(), hint), expected)
            << code.name() << " r=" << r << " hint " << hint;
      }
    }
  }
}

TEST(CodebookCode, HintedDecodeValidatesItsArguments) {
  const CodebookCode code = CodebookCode::Random(4, 10, 1);
  const BitString word = code.Encode(2);
  EXPECT_THROW((void)code.DecodeWords(word.words(), 4), std::invalid_argument);
  const std::vector<std::uint64_t> wide(2, 0);
  EXPECT_THROW((void)code.DecodeWords(wide, 0), std::invalid_argument);
}

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
