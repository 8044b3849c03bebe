#include "coding/owner_finding.h"

#include <algorithm>

#include "util/require.h"

namespace noisybeeps {
namespace {

// Party-local owner-finding state; everything here is derived from the
// party's input and the bits it received, never from other parties' state.
struct LocalState {
  int turn = 0;                    // whose turn this party believes it is
  std::vector<std::uint8_t> claimed;  // rounds this party has seen claimed
  std::vector<int> owner;          // recorded owners, -1 = none
};

// The smallest round this party can still claim, or the Next token.
std::uint64_t NextMessage(int party, const LocalState& state,
                          const BitString& pi_view, const BitString& beeped,
                          const BeepCode& code) {
  if (state.turn == party) {
    for (std::size_t j = 0; j < beeped.size(); ++j) {
      if (beeped[j] && pi_view[j] && state.claimed[j] == 0) {
        return j;
      }
    }
  }
  return code.next_token();
}

}  // namespace

OwnerFindingResult FindOwners(RoundEngine& engine, const BeepCode& code,
                              const std::vector<BitString>& pi_view,
                              const std::vector<BitString>& beeped) {
  const auto n = static_cast<int>(engine.num_parties());
  NB_REQUIRE(static_cast<int>(pi_view.size()) == n &&
                 static_cast<int>(beeped.size()) == n,
             "need one chunk view per party");
  const std::size_t chunk_len = code.chunk_len();
  for (int i = 0; i < n; ++i) {
    NB_REQUIRE(pi_view[i].size() == chunk_len &&
                   beeped[i].size() == chunk_len,
               "chunk views must match the code's chunk length");
  }

  std::vector<LocalState> state(n);
  for (auto& s : state) {
    s.claimed.assign(chunk_len, 0);
    s.owner.assign(chunk_len, -1);
  }

  engine.SetPhase("owner-finding");
  const std::size_t word_len = code.codeword_length();
  const int iterations = static_cast<int>(chunk_len) + n;
  std::vector<std::uint64_t> beeps(WordsForParties(n), 0);
  std::vector<BitString> received(n);

  for (int l = 0; l < iterations; ++l) {
    // Transmission: each party that believes it holds the turn beeps its
    // codeword; everyone else is silent.  (Under correlated noise the turn
    // beliefs agree and exactly one party speaks; under independent noise
    // diverged beliefs can collide -- the OR then garbles the word, which
    // downstream verification treats as any other decoding error.)
    std::vector<BitString> words(n);
    for (int i = 0; i < n; ++i) {
      if (state[i].turn == i) {
        words[i] = code.Encode(
            NextMessage(i, state[i], pi_view[i], beeped[i], code));
      }
    }
    for (int i = 0; i < n; ++i) received[i] = BitString();
    for (std::size_t t = 0; t < word_len; ++t) {
      std::fill(beeps.begin(), beeps.end(), 0);
      for (int i = 0; i < n; ++i) {
        if (!words[i].empty() && words[i][t]) SetPackedBit(beeps, i, true);
      }
      const std::span<const std::uint64_t> round_bits =
          engine.RoundWords(beeps);
      for (int i = 0; i < n; ++i) {
        received[i].PushBack(PackedBit(round_bits, i));
      }
    }
    // Decoding + state update, per party, from that party's received bits.
    for (int i = 0; i < n; ++i) {
      // Once this party's turn counter has run past the last party (only
      // possible after decoding errors), every remaining iteration carries
      // no usable information for it: ignore locally rather than record
      // claims by a non-existent party.
      if (state[i].turn >= n) continue;
      const std::uint64_t sigma = code.Decode(received[i]);
      if (sigma == code.next_token()) {
        ++state[i].turn;
      } else {
        const auto j = static_cast<std::size_t>(sigma);
        state[i].claimed[j] = 1;
        state[i].owner[j] = state[i].turn;
      }
    }
  }

  OwnerFindingResult result;
  result.owners.reserve(n);
  for (int i = 0; i < n; ++i) result.owners.push_back(std::move(state[i].owner));
  return result;
}

bool OwnersValid(const OwnerFindingResult& result, const BitString& true_pi,
                 const std::vector<BitString>& true_beeped) {
  const std::size_t chunk_len = true_pi.size();
  for (std::size_t m = 0; m < chunk_len; ++m) {
    if (!true_pi[m]) continue;
    const int owner = result.owners.front()[m];
    if (owner < 0 || owner >= static_cast<int>(true_beeped.size())) {
      return false;
    }
    if (!true_beeped[owner][m]) return false;
    for (const auto& view : result.owners) {
      if (view[m] != owner) return false;
    }
  }
  return true;
}

}  // namespace noisybeeps
