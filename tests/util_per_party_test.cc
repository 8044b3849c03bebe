#include "util/per_party.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/bitstring.h"

namespace noisybeeps {
namespace {

// Three parties whose values differ: stored one per party.
PerParty<std::string> Split3() { return {"a", "b", "c"}; }

TEST(PerParty, SizeIsThePartyCountAsASizeT) {
  const PerParty<BitString> held(8);
  ASSERT_EQ(held.size(), 8u);
  EXPECT_FALSE(held.empty());
  EXPECT_EQ(held.stored().size(), 1u);
  const PerParty<int> none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.stored().empty());
  EXPECT_EQ(none.begin(), none.end());
}

TEST(PerParty, ReadsGiveEveryPartyInOrderWithoutCopies) {
  const PerParty<std::string> held(4, "x");
  ASSERT_EQ(held.stored().size(), 1u);
  const std::string* value = &held.stored()[0];
  std::size_t parties = 0;
  for (const std::string& v : held) {
    EXPECT_EQ(&v, value);
    ++parties;
  }
  EXPECT_EQ(parties, 4u);
  EXPECT_EQ(&held[3], value);
  EXPECT_EQ(&held.front(), value);

  const PerParty<std::string> split = Split3();
  ASSERT_EQ(split.stored().size(), 3u);
  EXPECT_EQ(std::vector<std::string>(split.begin(), split.end()),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split[1], "b");
  EXPECT_EQ(split.front(), "a");
  EXPECT_EQ(static_cast<std::vector<std::string>>(split),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(static_cast<std::vector<std::string>>(held),
            std::vector<std::string>(4, "x"));
}

TEST(PerParty, EqualityIsPartyByPartyHoweverStored) {
  PerParty<std::string> held(3, "x");
  PerParty<std::string> split(3, "x");
  split.Split();
  ASSERT_EQ(held.stored().size(), 1u);
  ASSERT_EQ(split.stored().size(), 3u);
  EXPECT_EQ(held, split);
  EXPECT_EQ(split, held);
  EXPECT_EQ(held, (std::vector<std::string>(3, "x")));
  EXPECT_NE(held, (PerParty<std::string>(2, "x")));
  EXPECT_NE(held, (PerParty<std::string>(3, "y")));
  split[2] = "y";
  EXPECT_NE(held, split);
  EXPECT_NE(split, held);
  EXPECT_EQ(split, (PerParty<std::string>{"x", "x", "y"}));
}

TEST(PerParty, AVectorOfEqualValuesIsHeldOnce) {
  const PerParty<std::string> equal(std::vector<std::string>(5, "x"));
  EXPECT_EQ(equal.stored().size(), 1u);
  EXPECT_EQ(equal.size(), 5u);
  EXPECT_TRUE(equal.AllEqual());
  const PerParty<std::string> unequal(
      std::vector<std::string>{"x", "x", "x", "x", "y"});
  EXPECT_EQ(unequal.stored().size(), 5u);
  EXPECT_FALSE(unequal.AllEqual());
  const PerParty<BitString> empty_strings(std::vector<BitString>(3));
  EXPECT_EQ(empty_strings.stored().size(), 1u);
}

TEST(PerParty, AWriteToOnePartySplitsItFirst) {
  PerParty<std::vector<int>> owners(4, std::vector<int>{7, -1});
  ASSERT_EQ(owners.stored().size(), 1u);
  owners[2][1] = 3;
  ASSERT_EQ(owners.stored().size(), 4u);
  EXPECT_EQ(owners, (PerParty<std::vector<int>>{
                        {7, -1}, {7, -1}, {7, 3}, {7, -1}}));
  // Writes after the split change only their party.
  owners.Split()[0][0] = 1;
  EXPECT_EQ(std::as_const(owners)[0], (std::vector<int>{1, -1}));
  EXPECT_EQ(std::as_const(owners)[3], (std::vector<int>{7, -1}));
  // A const read does not split.
  const PerParty<std::vector<int>> held(4, std::vector<int>{7});
  EXPECT_EQ(held[2], std::vector<int>{7});
  EXPECT_EQ(held.stored().size(), 1u);
}

TEST(PerParty, AnOperationOnEveryPartyRunsOnceOnAValueHeldOnce) {
  PerParty<BitString> held(64, BitString::FromString("1011"));
  int calls = 0;
  for (BitString& t : held.stored()) {
    t.Truncate(2);
    ++calls;
  }
  EXPECT_EQ(calls, 1);
  for (const BitString& t : held) EXPECT_EQ(t.ToString(), "10");

  PerParty<std::vector<int>> none(64, std::vector<int>{});
  calls = 0;
  for (std::vector<int>& owners : none.stored()) {
    owners.insert(owners.end(), 3, -1);
    ++calls;
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(none[63], (std::vector<int>{-1, -1, -1}));

  // Map runs once on a value held once, per party on a split one, and
  // keeps the storage.
  calls = 0;
  const PerParty<std::size_t> sizes = held.Map([&calls](const BitString& t) {
    ++calls;
    return t.size();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sizes, (PerParty<std::size_t>(64, 2)));
  EXPECT_EQ(sizes.stored().size(), 1u);
  const PerParty<std::size_t> lengths =
      Split3().Map([](const std::string& s) { return s.size(); });
  EXPECT_EQ(lengths.stored().size(), 3u);
  EXPECT_EQ(lengths, (PerParty<std::size_t>(3, 1)));

  held.assign(5, BitString::FromString("1"));
  EXPECT_EQ(held.size(), 5u);
  EXPECT_EQ(held.stored().size(), 1u);
}

TEST(PerParty, ASplitValueEqualAgainRejoins) {
  // Two parties diverge in their last bit, as after a round whose
  // delivered bits differ; truncating back past it makes them equal.
  PerParty<BitString> transcripts(3, BitString::FromString("0110"));
  const std::span<BitString> own = transcripts.Split();
  own[0].PushBack(true);
  own[1].PushBack(false);
  own[2].PushBack(true);
  ASSERT_EQ(transcripts.stored().size(), 3u);
  transcripts.Rejoin();
  EXPECT_EQ(transcripts.stored().size(), 3u) << "still unequal";
  for (BitString& t : transcripts.stored()) t.Truncate(4);
  transcripts.Rejoin();
  EXPECT_EQ(transcripts.stored().size(), 1u);
  EXPECT_EQ(transcripts, (PerParty<BitString>(3, BitString::FromString(
                                                     "0110"))));
}

}  // namespace
}  // namespace noisybeeps
