// The party abstraction: a protocol participant in the beeping model.
//
// A protocol over the n-party beeping model (Appendix A.1.1) is a tuple
// (T, {f_m^i}, {g^i}).  A Party packages one participant's input together
// with its broadcast functions f_m^i and output function g^i:
//
//   ChooseBeep(prefix)  ==  f_{|prefix|+1}^i(x^i, prefix)
//   ComputeOutput(pi)   ==  g^i(x^i, pi)
//
// Both must be PURE functions of the transcript prefix (and the party's
// input, captured at construction).  Purity is a load-bearing contract:
// the rewind schemes verify a chunk from the beeps recorded while
// simulating it and rewind to earlier prefixes; ExtendTranscripts, the
// round loop of Execute, the repetition simulator and chunk simulation,
// asks for one round's beeps once, on the transcript every party shares,
// until the parties' transcripts diverge; and Protocol::BeepWords
// overrides compute a round's beeps without calling ChooseBeep at all.
// Each is exact only when the answer depends on nothing but the prefix.
// Randomized protocols fix their coins inside the party's input/seed,
// i.e. they are distributions over deterministic protocols, exactly as in
// the paper.
#ifndef NOISYBEEPS_PROTOCOL_PARTY_H_
#define NOISYBEEPS_PROTOCOL_PARTY_H_

#include <cstdint>
#include <vector>

#include "util/bitstring.h"

namespace noisybeeps {

// Protocol outputs are task-specific; tasks encode them as word vectors
// (e.g. InputSet encodes the output set as a bitmask, leader election as a
// single id).
using PartyOutput = std::vector<std::uint64_t>;

class Party {
 public:
  virtual ~Party() = default;

  // The bit this party beeps in round |transcript_prefix| + 1, given the
  // bits received so far.  Must be pure.
  [[nodiscard]] virtual bool ChooseBeep(
      const BitString& transcript_prefix) const = 0;

  // The party's output after the protocol ends with transcript `pi`.
  // Must be pure.
  [[nodiscard]] virtual PartyOutput ComputeOutput(const BitString& pi)
      const = 0;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_PROTOCOL_PARTY_H_
