// A Protocol bundles n parties with the protocol length T.
//
// Protocols in this library are *noiseless-model* objects: they describe
// what each party would beep on the noiseless channel.  Running them over
// a noisy channel directly (protocol/executor.h) shows the damage noise
// does; running them through a simulator (coding/) shows the paper's
// schemes repairing that damage.
#ifndef NOISYBEEPS_PROTOCOL_PROTOCOL_H_
#define NOISYBEEPS_PROTOCOL_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "protocol/party.h"

namespace noisybeeps {

class Protocol {
 public:
  virtual ~Protocol() = default;

  [[nodiscard]] virtual int num_parties() const = 0;
  // T: the number of rounds on the noiseless channel.
  [[nodiscard]] virtual int length() const = 0;
  // Precondition: 0 <= i < num_parties().
  [[nodiscard]] virtual const Party& party(int i) const = 0;

  // Every party's beep for round |prefix| + 1 when all of them hold the
  // same prefix, packed 64 parties per word as for RoundEngine::RoundWords:
  // overwrites every word, setting bit i iff party(i).ChooseBeep(prefix);
  // the tail bits past num_parties() come back zero.  The default asks
  // each party in turn.  Parties are pure (protocol/party.h), so an
  // override that computes the same bits another way is exact; a protocol
  // that knows its parties' beep rule can produce a round in a few word
  // operations.  Precondition: words.size() == WordsForParties(n).
  virtual void BeepWords(const BitString& prefix,
                         std::span<std::uint64_t> words) const;
};

// The standard concrete protocol: owns its parties.
class BasicProtocol final : public Protocol {
 public:
  // Preconditions: at least one party, no null parties, length >= 0.
  BasicProtocol(std::vector<std::unique_ptr<Party>> parties, int length);

  [[nodiscard]] int num_parties() const override {
    return static_cast<int>(parties_.size());
  }
  [[nodiscard]] int length() const override { return length_; }
  [[nodiscard]] const Party& party(int i) const override;

 private:
  std::vector<std::unique_ptr<Party>> parties_;
  int length_;
};

// The unique transcript the protocol produces on the noiseless channel
// (protocols here are deterministic given their inputs, so this is the
// ground truth every simulation is judged against).
[[nodiscard]] BitString ReferenceTranscript(const Protocol& protocol);

// The OR of all parties' beeps in round |prefix|+1 given a shared prefix.
[[nodiscard]] bool OrOfBeeps(const Protocol& protocol,
                             const BitString& prefix);

}  // namespace noisybeeps

#endif  // NOISYBEEPS_PROTOCOL_PROTOCOL_H_
