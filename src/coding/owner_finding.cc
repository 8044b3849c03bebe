#include "coding/owner_finding.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <utility>

#include "util/require.h"

namespace noisybeeps {
namespace {

// Side of the transposed bit blocks: one packed word.
constexpr std::size_t kBlock = BitString::kWordBits;

// Party-local owner-finding state; everything here is derived from the
// party's input and the bits it received, never from other parties' state.
struct LocalState {
  explicit LocalState(std::size_t chunk_len)
      : claimed((chunk_len + kBlock - 1) / kBlock, 0), owner(chunk_len, -1) {}

  // The update from one decoded message: Next passes the turn, any other
  // message is a round the turn-holder claims.
  void Apply(std::uint64_t sigma, const BeepCode& code) {
    if (sigma == code.next_token()) {
      ++turn;
    } else {
      const auto j = static_cast<std::size_t>(sigma);
      claimed[j / kBlock] |= std::uint64_t{1} << (j % kBlock);
      owner[j] = turn;
    }
  }

  int turn = 0;  // whose turn this party believes it is
  // Rounds this party has seen claimed, packed like BitString::words().
  std::vector<std::uint64_t> claimed;
  std::vector<int> owner;  // recorded owners, -1 = none
};

// The smallest round this party can still claim (it beeped there, its
// view has a 1 there, and nobody has claimed it), or the Next token.
std::uint64_t NextMessage(int party, const LocalState& state,
                          const BitString& pi_view, const BitString& beeped,
                          const BeepCode& code) {
  if (state.turn == party) {
    const std::span<const std::uint64_t> beeps = beeped.words();
    const std::span<const std::uint64_t> view = pi_view.words();
    for (std::size_t k = 0; k < beeps.size(); ++k) {
      const std::uint64_t open = beeps[k] & view[k] & ~state.claimed[k];
      if (open != 0) {
        return k * kBlock + static_cast<std::size_t>(std::countr_zero(open));
      }
    }
  }
  return code.next_token();
}

// A party that transmits this iteration, the message it sends, and the
// codeword it beeps.
struct Speaker {
  int party;
  std::uint64_t message;
  std::span<const std::uint64_t> codeword;
};

// Transposes a 64x64 bit matrix in place: bit c of rows[r] moves to bit r
// of rows[c].  Each pass swaps the off-diagonal blocks of every 2j x 2j
// block, for j = 32, 16, ..., 1.
void Transpose64(std::array<std::uint64_t, kBlock>& rows) {
  std::uint64_t mask = 0x00000000ffffffffULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < kBlock; k = ((k | j) + 1) & ~j) {
      const std::uint64_t swap = ((rows[k] >> j) ^ rows[k | j]) & mask;
      rows[k] ^= swap << j;
      rows[k | j] ^= swap;
    }
  }
}

// Every party hears each round alike, so every party decodes the same word
// and applies the same update to the same initial state: one state stands
// for all n.  Party `turn` alone speaks, from its own view and beeps, and
// its codeword is one SharedWordRounds call.  The message it sent is the
// decode's hint, which the received word certifies unless the channel
// flipped close to half the code's minimum distance.
OwnerFindingResult SharedOwners(RoundEngine& engine, const BeepCode& code,
                                const std::vector<BitString>& pi_view,
                                const std::vector<BitString>& beeped) {
  const auto n = static_cast<int>(engine.num_parties());
  const CodebookCode& book = code.codebook();
  const std::size_t word_len = code.codeword_length();
  LocalState state(code.chunk_len());
  std::int64_t full_scans = 0;
  std::vector<std::uint64_t> received(book.words_per_codeword());
  const int iterations = code.chunk_len() + n;
  for (int l = 0; l < iterations; ++l) {
    const int speaker = state.turn;
    if (speaker >= n) {
      // Every party has passed the turn (earlier after decoding errors):
      // nobody speaks again, but the remaining rounds still run.
      const std::vector<std::uint64_t> silence(received.size(), 0);
      for (; l < iterations; ++l) {
        engine.SharedWordRounds(silence, word_len, received);
      }
      break;
    }
    const std::uint64_t message =
        NextMessage(speaker, state, pi_view[speaker], beeped[speaker], code);
    engine.SharedWordRounds(book.CodewordWords(message), word_len, received);
    state.Apply(book.DecodeWords(received, message, &full_scans), code);
  }
  return {std::vector<std::vector<int>>(n, state.owner), full_scans};
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

  engine.SetPhase("owner-finding");
  if (engine.shares_rounds()) {
    return SharedOwners(engine, code, pi_view, beeped);
  }

  std::vector<LocalState> state(n, LocalState(chunk_len));
  const CodebookCode& book = code.codebook();
  const std::size_t word_len = code.codeword_length();
  const std::size_t stride = book.words_per_codeword();
  const std::size_t party_words = WordsForParties(n);
  const int iterations = static_cast<int>(chunk_len) + n;
  std::vector<std::uint64_t> beeps(party_words, 0);
  std::vector<Speaker> speakers;
  // One iteration's rounds as RoundWords returns them, round-major:
  // rounds[t * party_words + w] is word w of round t.
  std::vector<std::uint64_t> rounds(word_len * party_words);
  // The same bits party-major: received[i * stride + k] is word k of
  // party i's received codeword.
  std::vector<std::uint64_t> received(party_words * kBlock * stride);
  std::array<std::uint64_t, kBlock> block{};
  OwnerFindingResult result;

  for (int l = 0; l < iterations; ++l) {
    // Transmission: each party that believes it holds the turn beeps its
    // codeword; everyone else is silent.  (Under correlated noise the turn
    // beliefs agree and exactly one party speaks; under independent noise
    // diverged beliefs can collide -- the OR then garbles the word, which
    // downstream verification treats as any other decoding error.)
    speakers.clear();
    for (int i = 0; i < n; ++i) {
      if (state[i].turn == i) {
        const std::uint64_t message =
            NextMessage(i, state[i], pi_view[i], beeped[i], code);
        speakers.push_back({i, message, book.CodewordWords(message)});
      }
    }
    for (std::size_t t = 0; t < word_len; ++t) {
      std::fill(beeps.begin(), beeps.end(), 0);
      for (const Speaker& speaker : speakers) {
        if ((speaker.codeword[t / kBlock] >> (t % kBlock)) & 1u) {
          SetPackedBit(beeps, speaker.party, true);
        }
      }
      const std::span<const std::uint64_t> round_bits =
          engine.RoundWords(beeps);
      std::copy(round_bits.begin(), round_bits.end(),
                rounds.data() + t * party_words);
    }
    // Block (w, k) holds rounds 64k.. of parties 64w..; rounds past the
    // codeword are zero rows, so every received word has a zero tail.
    for (std::size_t w = 0; w < party_words; ++w) {
      for (std::size_t k = 0; k < stride; ++k) {
        for (std::size_t r = 0; r < kBlock; ++r) {
          const std::size_t t = k * kBlock + r;
          block[r] = t < word_len ? rounds[t * party_words + w] : 0;
        }
        Transpose64(block);
        for (std::size_t p = 0; p < kBlock; ++p) {
          received[(w * kBlock + p) * stride + k] = block[p];
        }
      }
    }
    // Decoding + state update, per party, from that party's received bits.
    // The first speaker's message is every decode's hint: whichever hint
    // is given, the decode is the nearest codeword to the party's own
    // word.  Decoding is a pure function of the word, so a party that
    // received the word decoded last reuses its message: on a channel every
    // party hears alike that the engine does not share (a record or replay
    // wrapper, a fault plan) that is every party after the first.
    const std::uint64_t hint =
        speakers.empty() ? code.next_token() : speakers.front().message;
    const std::uint64_t* decoded = nullptr;
    std::uint64_t sigma = 0;
    for (int i = 0; i < n; ++i) {
      // Once this party's turn counter has passed the last party (earlier
      // after decoding errors), the remaining iterations carry nothing for
      // it: ignore them rather than record claims by a non-existent party.
      if (state[i].turn >= n) continue;
      const std::uint64_t* word =
          received.data() + static_cast<std::size_t>(i) * stride;
      if (decoded == nullptr || !std::equal(word, word + stride, decoded)) {
        sigma = book.DecodeWords({word, stride}, hint, &result.full_scans);
        decoded = word;
      }
      state[i].Apply(sigma, code);
    }
  }

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
