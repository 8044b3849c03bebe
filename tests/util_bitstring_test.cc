#include "util/bitstring.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(BitString, DefaultIsEmpty) {
  BitString s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.PopCount(), 0u);
  EXPECT_EQ(s.ToString(), "");
}

TEST(BitString, SizedConstructorIsAllZero) {
  BitString s(130);
  EXPECT_EQ(s.size(), 130u);
  EXPECT_EQ(s.PopCount(), 0u);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_FALSE(s[i]);
}

TEST(BitString, InitializerList) {
  BitString s({1, 0, 1, 1});
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(s[0]);
  EXPECT_FALSE(s[1]);
  EXPECT_TRUE(s[2]);
  EXPECT_TRUE(s[3]);
  EXPECT_EQ(s.PopCount(), 3u);
}

TEST(BitString, InitializerListRejectsNonBits) {
  EXPECT_THROW(BitString({0, 2}), std::invalid_argument);
}

TEST(BitString, FromStringRoundTrip) {
  const std::string pattern = "01101001100101101001011001101001";
  EXPECT_EQ(BitString::FromString(pattern).ToString(), pattern);
}

TEST(BitString, FromStringRejectsJunk) {
  EXPECT_THROW(BitString::FromString("01x"), std::invalid_argument);
}

TEST(BitString, PushBackGrowsAcrossWordBoundary) {
  BitString s;
  for (int i = 0; i < 200; ++i) s.PushBack(i % 3 == 0);
  EXPECT_EQ(s.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(s[i], i % 3 == 0) << i;
}

TEST(BitString, SetAndGet) {
  BitString s(100);
  s.Set(63, true);
  s.Set(64, true);
  s.Set(99, true);
  EXPECT_TRUE(s[63]);
  EXPECT_TRUE(s[64]);
  EXPECT_TRUE(s[99]);
  EXPECT_EQ(s.PopCount(), 3u);
  s.Set(64, false);
  EXPECT_FALSE(s[64]);
  EXPECT_EQ(s.PopCount(), 2u);
}

TEST(BitString, IndexOutOfRangeThrows) {
  BitString s(5);
  EXPECT_THROW((void)s[5], std::invalid_argument);
  EXPECT_THROW(s.Set(5, true), std::invalid_argument);
}

TEST(BitString, AppendConcatenates) {
  BitString a = BitString::FromString("101");
  BitString b = BitString::FromString("0110");
  a.Append(b);
  EXPECT_EQ(a.ToString(), "1010110");
}

TEST(BitString, AppendEmptyIsNoop) {
  BitString a = BitString::FromString("11");
  a.Append(BitString());
  EXPECT_EQ(a.ToString(), "11");
}

TEST(BitString, TruncateShrinksAndClearsSlack) {
  BitString s;
  for (int i = 0; i < 70; ++i) s.PushBack(true);
  s.Truncate(65);
  EXPECT_EQ(s.size(), 65u);
  EXPECT_EQ(s.PopCount(), 65u);
  // Growing again must not resurrect stale bits.
  s.Truncate(3);
  s.PushBack(false);
  EXPECT_EQ(s.ToString(), "1110");
}

TEST(BitString, TruncateBeyondSizeThrows) {
  BitString s(4);
  EXPECT_THROW(s.Truncate(5), std::invalid_argument);
}

TEST(BitString, PrefixAndSubstring) {
  const BitString s = BitString::FromString("1100101");
  EXPECT_EQ(s.Prefix(4).ToString(), "1100");
  EXPECT_EQ(s.Prefix(0).ToString(), "");
  EXPECT_EQ(s.Substring(2, 6).ToString(), "0010");
  EXPECT_EQ(s.Substring(3, 3).ToString(), "");
  EXPECT_THROW((void)s.Substring(5, 4), std::invalid_argument);
  EXPECT_THROW((void)s.Prefix(8), std::invalid_argument);
}

TEST(BitString, HammingDistance) {
  const BitString a = BitString::FromString("110010");
  const BitString b = BitString::FromString("011011");
  EXPECT_EQ(a.HammingDistance(b), 3u);
  EXPECT_EQ(a.HammingDistance(a), 0u);
  EXPECT_THROW((void)a.HammingDistance(BitString::FromString("1")),
               std::invalid_argument);
}

TEST(BitString, StartsWith) {
  const BitString s = BitString::FromString("10110");
  EXPECT_TRUE(s.StartsWith(BitString()));
  EXPECT_TRUE(s.StartsWith(BitString::FromString("101")));
  EXPECT_TRUE(s.StartsWith(s));
  EXPECT_FALSE(s.StartsWith(BitString::FromString("100")));
  EXPECT_FALSE(s.StartsWith(BitString::FromString("101101")));
}

TEST(BitString, EqualityIsValueBased) {
  BitString a = BitString::FromString("0101");
  BitString b;
  for (char c : std::string("0101")) b.PushBack(c == '1');
  EXPECT_EQ(a, b);
  b.PushBack(false);
  EXPECT_NE(a, b);
}

TEST(BitString, EqualityIgnoresConstructionHistory) {
  // A string truncated down and rebuilt must equal a fresh one (slack
  // words cleared).
  BitString a;
  for (int i = 0; i < 128; ++i) a.PushBack(true);
  a.Truncate(2);
  const BitString b = BitString::FromString("11");
  EXPECT_EQ(a, b);
}

TEST(BitStringProperty, AppendThenPrefixRecoversOriginal) {
  Rng rng(7);
  const auto random_bits = [&rng](std::size_t len) {
    BitString s;
    for (std::size_t i = 0; i < len; ++i) s.PushBack(rng.Bit());
    return s;
  };
  const auto expect_joined = [](const BitString& joined, const BitString& a,
                                const BitString& b) {
    ASSERT_EQ(joined.size(), a.size() + b.size());
    EXPECT_EQ(joined.Prefix(a.size()), a);
    EXPECT_EQ(joined.Substring(a.size(), joined.size()), b);
    if (joined.word_count() > 0) {
      EXPECT_EQ(joined.words().back() & ~BitString::TailMask(joined.size()),
                0u);
    }
  };
  for (int trial = 0; trial < 50; ++trial) {
    BitString a;
    BitString b;
    const int la = static_cast<int>(rng.UniformInt(100));
    const int lb = static_cast<int>(rng.UniformInt(100));
    for (int i = 0; i < la; ++i) a.PushBack(rng.Bit());
    for (int i = 0; i < lb; ++i) b.PushBack(rng.Bit());
    BitString joined = a;
    joined.Append(b);
    expect_joined(joined, a, b);
  }
  // Append shifts whole words, so the starting size's offset within a word
  // (size % 64 of 0, 1 and 63) and self-append are the cases that matter.
  const std::size_t kSizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 130};
  for (const std::size_t la : kSizes) {
    const BitString a = random_bits(la);
    for (const std::size_t lb : kSizes) {
      const BitString b = random_bits(lb);
      BitString joined = a;
      joined.Append(b);
      expect_joined(joined, a, b);
    }
    BitString doubled = a;
    doubled.Append(doubled);
    expect_joined(doubled, a, a);
  }
}

TEST(BitStringProperty, PopCountMatchesNaive) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    BitString s;
    std::size_t expected = 0;
    const int len = static_cast<int>(rng.UniformInt(300));
    for (int i = 0; i < len; ++i) {
      const bool bit = rng.Bit();
      s.PushBack(bit);
      expected += bit;
    }
    EXPECT_EQ(s.PopCount(), expected);
  }
}

TEST(BitStringProperty, HammingDistanceIsAMetric) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const int len = 1 + static_cast<int>(rng.UniformInt(128));
    BitString a;
    BitString b;
    BitString c;
    for (int i = 0; i < len; ++i) {
      a.PushBack(rng.Bit());
      b.PushBack(rng.Bit());
      c.PushBack(rng.Bit());
    }
    const std::size_t ab = a.HammingDistance(b);
    const std::size_t bc = b.HammingDistance(c);
    const std::size_t ac = a.HammingDistance(c);
    EXPECT_EQ(ab, b.HammingDistance(a));
    EXPECT_LE(ac, ab + bc);  // triangle inequality
    EXPECT_EQ(a.HammingDistance(a), 0u);
  }
}

TEST(BitStringWords, WordAccessorsExposeThePacking) {
  BitString s(70);  // two words, 6 valid bits in the last
  EXPECT_EQ(s.word_count(), 2u);
  EXPECT_EQ(s.words().size(), 2u);
  s.Set(0, true);
  s.Set(64, true);
  s.Set(69, true);
  EXPECT_EQ(s.Word(0), 1u);
  EXPECT_EQ(s.Word(1), (std::uint64_t{1} << 0) | (std::uint64_t{1} << 5));
  EXPECT_THROW((void)s.Word(2), std::invalid_argument);
}

TEST(BitStringWords, SetWordMasksTheTail) {
  BitString s(70);
  s.SetWord(1, ~std::uint64_t{0});  // only bits 0..5 are valid
  EXPECT_EQ(s.Word(1), (std::uint64_t{1} << 6) - 1);
  EXPECT_EQ(s.PopCount(), 6u);
  s.SetWord(0, ~std::uint64_t{0});  // full word, nothing masked
  EXPECT_EQ(s.Word(0), ~std::uint64_t{0});
  EXPECT_EQ(s.PopCount(), 70u);
  EXPECT_THROW(s.SetWord(2, 1), std::invalid_argument);
}

TEST(BitStringWords, TailMaskValues) {
  EXPECT_EQ(BitString::TailMask(64), ~std::uint64_t{0});
  EXPECT_EQ(BitString::TailMask(128), ~std::uint64_t{0});
  EXPECT_EQ(BitString::TailMask(1), 1u);
  EXPECT_EQ(BitString::TailMask(6), (std::uint64_t{1} << 6) - 1);
  EXPECT_EQ(BitString::TailMask(0), ~std::uint64_t{0});
}

TEST(BitStringWords, ResizeGrowsZeroFilledAndShrinksClean) {
  BitString s;
  for (int i = 0; i < 70; ++i) s.PushBack(true);
  s.Resize(200);
  EXPECT_EQ(s.size(), 200u);
  EXPECT_EQ(s.PopCount(), 70u);  // growth appends zeros
  for (std::size_t i = 70; i < 200; ++i) EXPECT_FALSE(s[i]);
  s.Resize(3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.PopCount(), 3u);
  // Regrow across the old dirty region: the slack must have been cleared.
  s.Resize(130);
  EXPECT_EQ(s.PopCount(), 3u);
}

// The tail-bit invariant, mechanically: after ANY randomized mutation
// sequence, the unused high bits of the last word are zero, and the
// word-path PopCount/HammingDistance agree with a bit-by-bit reference.
TEST(BitStringProperty, MutationsPreserveTheTailBitInvariant) {
  Rng rng(20260808);
  for (int trial = 0; trial < 40; ++trial) {
    BitString s;
    for (int step = 0; step < 60; ++step) {
      switch (rng.UniformInt(7)) {
        case 0:
          s.PushBack(rng.Bit());
          break;
        case 1:
          if (s.size() > 0) s.Set(rng.UniformInt(s.size()), rng.Bit());
          break;
        case 2:
          s.Truncate(rng.UniformInt(s.size() + 1));
          break;
        case 3: {
          BitString other;
          const std::uint64_t extra = rng.UniformInt(80);
          for (std::uint64_t i = 0; i < extra; ++i) other.PushBack(rng.Bit());
          s.Append(other);
          break;
        }
        case 4:
          s.Resize(rng.UniformInt(150));
          break;
        case 5:
          if (s.word_count() > 0) {
            s.SetWord(rng.UniformInt(s.word_count()), rng.NextU64());
          }
          break;
        case 6:
          if (s.size() < 150) s.Append(s);
          break;
      }
      // Invariant: slack bits of the last word are zero.
      if (s.word_count() > 0) {
        ASSERT_EQ(s.words().back() & ~BitString::TailMask(s.size()), 0u)
            << "trial " << trial << " step " << step;
      }
      // Word-path PopCount equals the bit-by-bit reference.
      std::size_t naive = 0;
      for (std::size_t i = 0; i < s.size(); ++i) naive += s[i] ? 1 : 0;
      ASSERT_EQ(s.PopCount(), naive) << "trial " << trial << " step " << step;
    }
    // Word-path HammingDistance equals the bit-by-bit reference against a
    // fresh random string of the same length.
    BitString other(s.size());
    for (std::size_t i = 0; i < other.size(); ++i) other.Set(i, rng.Bit());
    std::size_t naive_hd = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      naive_hd += s[i] != other[i] ? 1 : 0;
    }
    ASSERT_EQ(s.HammingDistance(other), naive_hd) << "trial " << trial;
  }
}

}  // namespace
}  // namespace noisybeeps
