#include "protocol/protocol.h"

#include <algorithm>

#include "channel/channel.h"
#include "util/require.h"

namespace noisybeeps {

void Protocol::BeepWords(const BitString& prefix,
                         std::span<std::uint64_t> words) const {
  const int n = num_parties();
  NB_REQUIRE(words.size() == WordsForParties(n),
             "beep word span does not match the party count");
  std::fill(words.begin(), words.end(), 0);
  for (int i = 0; i < n; ++i) {
    if (party(i).ChooseBeep(prefix)) SetPackedBit(words, i, true);
  }
}

BasicProtocol::BasicProtocol(std::vector<std::unique_ptr<Party>> parties,
                             int length)
    : parties_(std::move(parties)), length_(length) {
  NB_REQUIRE(!parties_.empty(), "protocol needs at least one party");
  NB_REQUIRE(length_ >= 0, "protocol length must be non-negative");
  for (const auto& p : parties_) {
    NB_REQUIRE(p != nullptr, "null party");
  }
}

const Party& BasicProtocol::party(int i) const {
  NB_REQUIRE(i >= 0 && i < num_parties(), "party index out of range");
  return *parties_[i];
}

bool OrOfBeeps(const Protocol& protocol, const BitString& prefix) {
  for (int i = 0; i < protocol.num_parties(); ++i) {
    if (protocol.party(i).ChooseBeep(prefix)) return true;
  }
  return false;
}

BitString ReferenceTranscript(const Protocol& protocol) {
  BitString pi;
  for (int m = 0; m < protocol.length(); ++m) {
    pi.PushBack(OrOfBeeps(protocol, pi));
  }
  return pi;
}

}  // namespace noisybeeps
