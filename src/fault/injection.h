// Applying a FaultPlan to an execution.
//
// Faults are injected at the round boundary, never inside a Channel:
// send-side faults rewrite a party's beep bit BEFORE the channel sees the
// beeper count, and receive-side faults rewrite the party's received bit
// AFTER delivery.  Channel implementations therefore stay untouched and
// compose freely with every fault kind (a babbler over a burst channel is
// just both layers doing their job).
//
//   send side     crash/sleepy -> 0,  stuck -> 1,  babbler -> Bernoulli
//                 from its own adversarial Rng stream (derived from the
//                 plan seed, never from the channel rng)
//   receive side  crash/sleepy/deaf -> 0
//
// FaultyRoundEngine is the injection point: a RoundEngine that applies the
// plan around every noisy round, for the simulators and for direct
// (uncoded) execution alike.  It overrides RoundWords, the engine's one
// virtual round.  A plan with a spec rewrites single parties' bits, so
// the parties no longer hear alike: such an engine is constructed as
// rewriting per-party bits and never shares a round, and RepeatRound runs
// every repetition through the override.  With an empty plan every round
// delegates straight to RoundEngine -- the zero-fault no-op the golden
// test pins down.
//
// Overlapping specs compose in plan order: each active spec rewrites the
// value in turn, so the LAST active spec for a (party, round) wins.  A
// babbler draws from its stream in every round of its window even when a
// later spec overrides the result, keeping its stream position a function
// of the round index alone.
#ifndef NOISYBEEPS_FAULT_INJECTION_H_
#define NOISYBEEPS_FAULT_INJECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_plan.h"
#include "protocol/executor.h"
#include "protocol/round_engine.h"
#include "util/rng.h"

namespace noisybeeps {

// The runtime state of one execution under a plan (babbler stream
// positions).  Stateless apart from those streams: the same injector
// applied to the same round sequence rewrites identically.
class FaultInjector {
 public:
  // Preconditions: every spec's party < num_parties.
  FaultInjector(const FaultPlan& plan, std::int64_t num_parties);

  // True when the plan has any spec at all (the fast-path test: an
  // inactive injector's Apply* calls are skipped entirely).
  [[nodiscard]] bool active() const { return !specs_.empty(); }

  // Rewrites the packed beep bits (bit i of word w is party w*64+i) for
  // noisy round `round` in place.  A fault touches single bits, so the
  // cost is per active spec, not per party.
  void ApplySendWords(std::int64_t round, std::span<std::uint64_t> beeps);
  // Rewrites the packed received bits for noisy round `round` in place.
  void ApplyReceiveWords(std::int64_t round,
                         std::span<std::uint64_t> received);

 private:
  std::vector<FaultSpec> specs_;
  std::vector<Rng> babbler_rngs_;  // parallel to specs_ (unused slots for
                                   // non-babbler specs stay untouched)
};

// A RoundEngine that injects `plan` around every round.  With an empty
// plan, rounds are bit-identical to a plain RoundEngine over the same
// channel and rng.
class FaultyRoundEngine final : public RoundEngine {
 public:
  // The engine borrows channel, rng, and plan; all must outlive it.
  // Preconditions: plan.MaxParty() < num_parties.
  FaultyRoundEngine(const Channel& channel, Rng& rng,
                    std::int64_t num_parties, const FaultPlan& plan);

  std::span<const std::uint64_t> RoundWords(
      std::span<const std::uint64_t> beep_words) override;

 private:
  FaultInjector injector_;
  std::vector<std::uint64_t> faulted_beep_words_;
  std::vector<std::uint64_t> faulted_received_words_;
};

// Fault-aware counterpart of Execute (protocol/executor.h): runs
// `protocol` for its full length over `channel` on a FaultyRoundEngine.
// With an empty plan this reproduces Execute(protocol, channel, rng)
// bit-for-bit.
// Preconditions: plan.MaxParty() < protocol.num_parties().
[[nodiscard]] ExecutionResult Execute(const Protocol& protocol,
                                      const Channel& channel,
                                      const FaultPlan& plan, Rng& rng);

}  // namespace noisybeeps

#endif  // NOISYBEEPS_FAULT_INJECTION_H_
