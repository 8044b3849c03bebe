#include "channel/channel.h"

#include <algorithm>
#include <vector>

#include "util/require.h"

namespace noisybeeps {

void FillSharedWords(std::span<std::uint64_t> words, std::int64_t n,
                     bool bit) {
  if (words.empty()) return;
  const std::uint64_t fill = bit ? ~std::uint64_t{0} : 0;
  for (std::uint64_t& w : words) w = fill;
  words.back() &= TailWordMask(n);
}

std::optional<bool> SharedBit(std::span<const std::uint64_t> words,
                              std::int64_t n) {
  NB_REQUIRE(n >= 1 && words.size() == WordsForParties(n),
             "word span does not match the party count");
  const bool bit = (words.front() & 1u) != 0;
  const std::uint64_t fill = bit ? ~std::uint64_t{0} : 0;
  const std::size_t last = words.size() - 1;
  for (std::size_t w = 0; w < last; ++w) {
    if (words[w] != fill) return std::nullopt;
  }
  if (((words[last] ^ fill) & TailWordMask(n)) != 0) return std::nullopt;
  return bit;
}

void PackBits(std::span<const std::uint8_t> bytes,
              std::span<std::uint64_t> words) {
  NB_REQUIRE(words.size() ==
                 WordsForParties(static_cast<std::int64_t>(bytes.size())),
             "word span does not match the byte span's party count");
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t base = w * 64;
    const std::size_t lanes = std::min<std::size_t>(64, bytes.size() - base);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < lanes; ++b) {
      word |= static_cast<std::uint64_t>(bytes[base + b] != 0) << b;
    }
    words[w] = word;
  }
}

void UnpackBits(std::span<const std::uint64_t> words,
                std::span<std::uint8_t> bytes) {
  NB_REQUIRE(words.size() ==
                 WordsForParties(static_cast<std::int64_t>(bytes.size())),
             "word span does not match the byte span's party count");
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>((words[i / 64] >> (i % 64)) & 1u);
  }
}

void Channel::CheckWordDelivery(std::int64_t num_beepers,
                                std::span<const std::uint64_t> received,
                                std::int64_t num_parties) {
  NB_REQUIRE(num_parties >= 1, "need at least one listener");
  NB_REQUIRE(num_beepers >= 0 && num_beepers <= num_parties,
             "beeper count out of [0, num_parties]");
  NB_REQUIRE(received.size() == WordsForParties(num_parties),
             "received word span does not match the party count");
}

void Channel::Deliver(std::int64_t num_beepers,
                      std::span<std::uint8_t> received, Rng& rng) const {
  const auto num_parties = static_cast<std::int64_t>(received.size());
  std::vector<std::uint64_t> words(WordsForParties(num_parties), 0);
  CheckWordDelivery(num_beepers, words, num_parties);
  DeliverWords(num_beepers, words, num_parties, WordMode::kStreamCompat,
               rng);
  UnpackBits(words, received);
}

void SharedDrawChannel::DeliverWords(std::int64_t num_beepers,
                                     std::span<std::uint64_t> received,
                                     std::int64_t num_parties, WordMode mode,
                                     Rng& rng) const {
  CheckWordDelivery(num_beepers, received, num_parties);
  (void)mode;  // one outcome per round: the modes coincide
  FillSharedWords(received, num_parties, SharedOutcome(num_beepers, rng));
}

}  // namespace noisybeeps
