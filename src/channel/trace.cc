#include "channel/trace.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/require.h"

namespace noisybeeps {

void WriteTraceCsv(const Trace& trace, std::ostream& os) {
  os << "round,or_bit,delivered\n";
  for (std::size_t r = 0; r < trace.size(); ++r) {
    os << r << ',' << (trace[r].or_bit ? 1 : 0) << ',';
    for (std::uint8_t b : trace[r].delivered) os << (b ? '1' : '0');
    os << '\n';
  }
}

Trace ReadTraceCsv(std::istream& is) {
  std::string line;
  NB_REQUIRE(static_cast<bool>(std::getline(is, line)) &&
                 line == "round,or_bit,delivered",
             "missing or malformed trace CSV header");
  Trace trace;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string round_str;
    std::string or_str;
    std::string delivered_str;
    NB_REQUIRE(static_cast<bool>(std::getline(row, round_str, ',')) &&
                   static_cast<bool>(std::getline(row, or_str, ',')) &&
                   static_cast<bool>(std::getline(row, delivered_str)),
               "malformed trace CSV row: " + line);
    // Comparing against the expected rendering catches out-of-order rows,
    // non-numeric indices, and indices too large to have been written by
    // WriteTraceCsv (which emits consecutive ones from 0) -- without ever
    // parsing an attacker-sized integer.
    NB_REQUIRE(round_str == std::to_string(trace.size()),
               "trace CSV rows out of order at: " + line);
    NB_REQUIRE(or_str == "0" || or_str == "1",
               "bad or_bit in trace CSV row: " + line);
    NB_REQUIRE(!delivered_str.empty(),
               "empty delivered column in trace CSV row: " + line);
    NB_REQUIRE(trace.empty() ||
                   delivered_str.size() == trace.front().delivered.size(),
               "ragged trace CSV: delivered width changed at: " + line);
    TraceRound round;
    round.or_bit = or_str == "1";
    round.delivered.reserve(delivered_str.size());
    for (char c : delivered_str) {
      NB_REQUIRE(c == '0' || c == '1',
                 "bad delivered bit in trace CSV row: " + line);
      round.delivered.push_back(c == '1' ? 1 : 0);
    }
    trace.push_back(std::move(round));
  }
  return trace;
}

std::size_t CountNoisyRounds(const Trace& trace) {
  std::size_t noisy = 0;
  for (const TraceRound& round : trace) {
    for (std::uint8_t b : round.delivered) {
      if ((b != 0) != round.or_bit) {
        ++noisy;
        break;
      }
    }
  }
  return noisy;
}

RecordingChannel::RecordingChannel(const Channel& inner) : inner_(&inner) {}

void RecordingChannel::DeliverWords(std::int64_t num_beepers,
                                    std::span<std::uint64_t> received,
                                    std::int64_t num_parties, WordMode mode,
                                    Rng& rng) const {
  inner_->DeliverWords(num_beepers, received, num_parties, mode, rng);
  TraceRound round;
  round.or_bit = num_beepers > 0;
  round.delivered.resize(static_cast<std::size_t>(num_parties));
  UnpackBits(received, round.delivered);
  trace_.push_back(std::move(round));
}

std::string RecordingChannel::name() const {
  return "recording(" + inner_->name() + ")";
}

ReplayChannel::ReplayChannel(Trace trace, bool correlated)
    : trace_(std::move(trace)), correlated_(correlated) {
  for (std::size_t r = 0; r < trace_.size(); ++r) {
    NB_REQUIRE(!trace_[r].delivered.empty(),
               "replay trace has a round with no delivered bits (round " +
                   std::to_string(r) + ")");
    NB_REQUIRE(trace_[r].delivered.size() == trace_.front().delivered.size(),
               "replay trace is ragged: party count changes at round " +
                   std::to_string(r));
  }
}

void ReplayChannel::DeliverWords(std::int64_t num_beepers,
                                 std::span<std::uint64_t> received,
                                 std::int64_t num_parties, WordMode mode,
                                 Rng& rng) const {
  CheckWordDelivery(num_beepers, received, num_parties);
  (void)mode;  // the recording dictates the outcome
  (void)rng;
  NB_REQUIRE(next_ < trace_.size(),
             "ReplayChannel: trace exhausted after " +
                 std::to_string(trace_.size()) +
                 " rounds -- the replayed execution asked for more rounds "
                 "than were recorded");
  const TraceRound& round = trace_[next_++];
  NB_REQUIRE(round.delivered.size() ==
                 static_cast<std::size_t>(num_parties),
             "replaying a trace recorded with a different party count");
  PackBits(round.delivered, received);
}

std::string ReplayChannel::name() const {
  return "replay(" + std::to_string(trace_.size()) + " rounds)";
}

}  // namespace noisybeeps
