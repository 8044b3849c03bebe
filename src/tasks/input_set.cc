#include "tasks/input_set.h"

#include <algorithm>
#include <bit>
#include <span>

#include "util/math.h"
#include "util/require.h"

namespace noisybeeps {
namespace {

// Party for the r-repetition protocol (r = 1 is the trivial protocol).
class RepeatedInputSetParty final : public Party {
 public:
  RepeatedInputSetParty(int input, int universe, int repetitions,
                        RoundDecision decision)
      : input_(input),
        universe_(universe),
        repetitions_(repetitions),
        decision_(decision) {}

  [[nodiscard]] bool ChooseBeep(const BitString& prefix) const override {
    const std::size_t m = prefix.size();  // 0-based round index
    const int logical_round = static_cast<int>(m) / repetitions_;
    return logical_round == input_;
  }

  // Element e is in the set iff its rounds [e*r, e*r + r) meet the
  // decision.  Reads pi a word at a time.  Precondition: pi covers the
  // protocol's T = universe * r rounds (later bits are ignored).
  [[nodiscard]] PartyOutput ComputeOutput(const BitString& pi) const override {
    const std::size_t length =
        static_cast<std::size_t>(universe_) * repetitions_;
    NB_REQUIRE(pi.size() >= length, "transcript shorter than the protocol");
    PartyOutput mask((universe_ + 63) / 64, 0);
    const std::span<const std::uint64_t> words = pi.words();
    if (repetitions_ == 1) {
      // One round per element, and either decision reads a lone 1 as
      // membership: the set is the transcript's first 2n bits.
      std::copy_n(words.begin(), mask.size(), mask.begin());
      mask.back() &= BitString::TailMask(length);
      return mask;
    }
    // The walk takes a step per 1 and the count a step per element, at
    // about the same cost per step, and a field holds about r * d ones.
    // InputSet's rounds have density d of 0.26 (down noise) to 0.6 (up
    // noise): the count wins from r = 3 at d = 0.6 but only from about
    // r = 5 at d = 0.26, so below r = 5 the walk runs.
    if (repetitions_ <= 4) {
      WalkOnes(words, length, mask);
    } else {
      CountFields(words, mask);
    }
    return mask;
  }

 private:
  // Walks the 1s in order, counting them per element.  An element with no
  // 1 is never a member, so only elements that have one are decided.
  void WalkOnes(std::span<const std::uint64_t> words, std::size_t length,
                PartyOutput& mask) const {
    int element = -1;
    int ones = 0;
    const auto decide = [&] {
      if (element >= 0 && IsMember(ones)) {
        mask[element / 64] |= std::uint64_t{1} << (element % 64);
      }
    };
    for (std::size_t w = 0; w * 64 < length; ++w) {
      std::uint64_t word = words[w];
      if ((w + 1) * 64 > length) word &= BitString::TailMask(length);
      for (; word != 0; word &= word - 1) {
        const std::size_t round =
            w * 64 + static_cast<std::size_t>(std::countr_zero(word));
        const int e = static_cast<int>(round / repetitions_);
        if (e != element) {
          decide();
          element = e;
          ones = 0;
        }
        ++ones;
      }
    }
    decide();
  }

  // Element e's rounds are the field [e*r, e*r + r): counts its 1s with a
  // masked popcount of each word the field covers.
  void CountFields(std::span<const std::uint64_t> words,
                   PartyOutput& mask) const {
    const auto r = static_cast<std::size_t>(repetitions_);
    const std::uint64_t field =
        r < 64 ? (std::uint64_t{1} << r) - 1 : ~std::uint64_t{0};
    std::size_t begin = 0;
    for (int e = 0; e < universe_; ++e) {
      const std::size_t end = begin + r;
      const std::size_t first = begin / 64;
      const std::size_t last = (end - 1) / 64;
      int ones = WordPopCount((words[first] >> (begin % 64)) & field);
      if (first != last) {
        for (std::size_t w = first + 1; w < last; ++w) {
          ones += WordPopCount(words[w]);
        }
        ones += WordPopCount(words[last] & BitString::TailMask(end));
      }
      mask[e / 64] |= std::uint64_t{IsMember(ones)} << (e % 64);
      begin = end;
    }
  }

  [[nodiscard]] bool IsMember(int ones) const {
    return decision_ == RoundDecision::kMajority ? 2 * ones >= repetitions_
                                                 : ones == repetitions_;
  }

  int input_;
  int universe_;
  int repetitions_;
  RoundDecision decision_;
};

// The r-repetition protocol.  Round m's beepers are the parties whose
// input is m / r, so BeepWords sets their bits from the parties grouped
// by input instead of asking every party.
class RepeatedInputSetProtocol final : public Protocol {
 public:
  RepeatedInputSetProtocol(const InputSetInstance& instance, int repetitions,
                           RoundDecision decision)
      : repetitions_(repetitions),
        length_(instance.universe_size() * repetitions),
        by_input_(static_cast<std::size_t>(instance.universe_size())) {
    const int universe = instance.universe_size();
    parties_.reserve(instance.inputs.size());
    for (const int x : instance.inputs) {
      NB_REQUIRE(x >= 0 && x < universe, "input out of range");
      by_input_[x].push_back(num_parties());
      parties_.emplace_back(x, universe, repetitions, decision);
    }
  }

  [[nodiscard]] int num_parties() const override {
    return static_cast<int>(parties_.size());
  }
  [[nodiscard]] int length() const override { return length_; }
  [[nodiscard]] const Party& party(int i) const override {
    NB_REQUIRE(i >= 0 && i < num_parties(), "party index out of range");
    return parties_[static_cast<std::size_t>(i)];
  }

  void BeepWords(const BitString& prefix,
                 std::span<std::uint64_t> words) const override {
    NB_REQUIRE(words.size() == (parties_.size() + 63) / 64,
               "beep word span does not match the party count");
    std::fill(words.begin(), words.end(), 0);
    const std::size_t input = prefix.size() / repetitions_;
    if (input >= by_input_.size()) return;  // past the last round
    for (const int i : by_input_[input]) {
      words[static_cast<std::size_t>(i / 64)] |= std::uint64_t{1}
                                                 << (i % 64);
    }
  }

 private:
  int repetitions_;
  int length_;
  std::vector<RepeatedInputSetParty> parties_;
  std::vector<std::vector<int>> by_input_;  // party indices, per input
};

class InputSetFamily final : public ProtocolFamily {
 public:
  InputSetFamily(int n, int repetitions, RoundDecision decision)
      : n_(n), repetitions_(repetitions), decision_(decision) {}

  [[nodiscard]] int num_parties() const override { return n_; }
  [[nodiscard]] int num_inputs() const override { return 2 * n_; }
  [[nodiscard]] int length() const override { return 2 * n_ * repetitions_; }
  [[nodiscard]] std::unique_ptr<Party> MakeParty(int i,
                                                 int input) const override {
    NB_REQUIRE(i >= 0 && i < n_, "party index out of range");
    NB_REQUIRE(input >= 0 && input < 2 * n_, "input out of range");
    return std::make_unique<RepeatedInputSetParty>(input, 2 * n_,
                                                   repetitions_, decision_);
  }

 private:
  int n_;
  int repetitions_;
  RoundDecision decision_;
};

}  // namespace

InputSetInstance SampleInputSet(int n, Rng& rng) {
  NB_REQUIRE(n >= 1, "need at least one party");
  InputSetInstance instance;
  instance.inputs.reserve(n);
  for (int i = 0; i < n; ++i) {
    instance.inputs.push_back(static_cast<int>(rng.UniformInt(2 * n)));
  }
  return instance;
}

PartyOutput InputSetExpectedOutput(const InputSetInstance& instance) {
  const int universe = instance.universe_size();
  PartyOutput mask((universe + 63) / 64, 0);
  for (int x : instance.inputs) {
    NB_REQUIRE(x >= 0 && x < universe, "input out of range");
    mask[x / 64] |= std::uint64_t{1} << (x % 64);
  }
  return mask;
}

std::unique_ptr<Protocol> MakeInputSetProtocol(
    const InputSetInstance& instance) {
  return MakeRepeatedInputSetProtocol(instance, 1, RoundDecision::kMajority);
}

std::unique_ptr<Protocol> MakeRepeatedInputSetProtocol(
    const InputSetInstance& instance, int repetitions,
    RoundDecision decision) {
  NB_REQUIRE(repetitions >= 1, "repetition factor must be positive");
  NB_REQUIRE(!instance.inputs.empty(), "protocol needs at least one party");
  return std::make_unique<RepeatedInputSetProtocol>(instance, repetitions,
                                                    decision);
}

std::unique_ptr<ProtocolFamily> MakeInputSetFamily(int n, int repetitions,
                                                   RoundDecision decision) {
  NB_REQUIRE(n >= 1, "need at least one party");
  NB_REQUIRE(repetitions >= 1, "repetition factor must be positive");
  return std::make_unique<InputSetFamily>(n, repetitions, decision);
}

bool InputSetAllCorrect(const InputSetInstance& instance,
                        const std::vector<PartyOutput>& outputs) {
  const PartyOutput expected = InputSetExpectedOutput(instance);
  for (const PartyOutput& out : outputs) {
    if (out != expected) return false;
  }
  return true;
}

}  // namespace noisybeeps
