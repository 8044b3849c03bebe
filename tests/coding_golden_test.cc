// Golden matrix for the coding layer: exact seeded outcomes of every
// simulator on the channels and fault plans it runs under, and of direct
// execution (Execute), whose loop the repetition simulator runs.
//
// Each cell runs one Simulate call and pins a single FNV-1a digest over
// everything the run produced: every party's transcript and owner records,
// noisy_rounds_used, phase_rounds, the verdict fields, and the Rng state
// after the run (so a change that consumes the stream differently fails
// even when the transcripts happen to agree).  n = 65 crosses a 64-party
// word boundary.  A refactor of the round representation, the chunk loop,
// or the fault wrapper must leave every digest unchanged; an intentional
// change of behaviour re-pins the matrix and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "coding/hierarchical_sim.h"
#include "coding/rewind_sim.h"
#include "fault/fault_plan.h"
#include "fault/injection.h"
#include "resilience/checkpoint.h"
#include "service/workload.h"
#include "tasks/input_set.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

using resilience::AppendBytes;
using resilience::AppendU64;

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kFaultSeed = 11;
constexpr const char* kFaultPlan = "sleepy:2@200-600;babble:5@0-3000:0.3";

void AppendBits(std::string& out, const BitString& bits) {
  AppendU64(out, bits.size());
  for (const std::uint64_t word : bits.words()) AppendU64(out, word);
}

std::uint64_t Digest(const SimulationResult& result, const Rng& rng) {
  std::string out;
  for (const BitString& transcript : result.transcripts) {
    AppendBits(out, transcript);
  }
  for (const std::vector<int>& owners : result.owners) {
    AppendU64(out, owners.size());
    for (const int owner : owners) {
      AppendU64(out, static_cast<std::uint64_t>(owner));
    }
  }
  AppendU64(out, static_cast<std::uint64_t>(result.noisy_rounds_used));
  for (const auto& [phase, rounds] : result.phase_rounds) {
    AppendBytes(out, phase);
    AppendU64(out, static_cast<std::uint64_t>(rounds));
  }
  const SimulationVerdict& verdict = result.verdict;
  AppendU64(out, static_cast<std::uint64_t>(verdict.status));
  AppendU64(out, verdict.budget_exhausted ? 1 : 0);
  for (const int agreement : verdict.agreement) {
    AppendU64(out, static_cast<std::uint64_t>(agreement));
  }
  AppendU64(out, static_cast<std::uint64_t>(verdict.majority_size));
  AppendBits(out, verdict.majority_transcript);
  AppendBytes(out, verdict.first_divergent_phase);
  AppendU64(out, static_cast<std::uint64_t>(verdict.first_divergence_round));
  for (const std::uint64_t word : rng.SaveState()) AppendU64(out, word);
  return resilience::Fnv1a64(out);
}

struct Cell {
  const char* name;
  const char* sim;  // a service::MakeSimulator name
  const char* task;
  const char* channel;
  int n;
  bool faults;
  std::uint64_t digest;
};

std::ostream& operator<<(std::ostream& os, const Cell& cell) {
  return os << cell.name;
}

// clang-format off
const Cell kCells[] = {
    {"repetition_correlated_n8",          "repetition",   "input_set",    "correlated",  8,  false, 0xafe4de44a2fd5d45},
    {"repetition_correlated_n8_faults",   "repetition",   "input_set",    "correlated",  8,  true,  0x7d84930f007f8dc0},
    {"repetition_correlated_n65",         "repetition",   "input_set",    "correlated",  65, false, 0x2afcdf50d5779fd4},
    {"repetition_correlated_n65_faults",  "repetition",   "input_set",    "correlated",  65, true,  0x2e3bc2953e4f3b86},
    {"repetition_independent_n8",         "repetition",   "input_set",    "independent", 8,  false, 0x5fc00ee4937c1cc8},
    {"repetition_independent_n8_faults",  "repetition",   "input_set",    "independent", 8,  true,  0x8f17f07b1e57dca1},
    {"repetition_independent_n65",        "repetition",   "input_set",    "independent", 65, false, 0x7b48c5f226d37c02},
    {"repetition_independent_n65_faults", "repetition",   "input_set",    "independent", 65, true,  0xe732ad6d1dc2ca8a},
    {"repetition_burst_n8",               "repetition",   "input_set",    "burst",       8,  false, 0x922ac9511af2c23e},
    {"repetition_burst_n8_faults",        "repetition",   "input_set",    "burst",       8,  true,  0x8f6dd10eb616c8f7},
    {"repetition_burst_n65",              "repetition",   "input_set",    "burst",       65, false, 0xff274657787748c0},
    {"repetition_burst_n65_faults",       "repetition",   "input_set",    "burst",       65, true,  0x9ae420f0b03c4a46},
    {"repetition_up_n8",                  "repetition",   "input_set",    "up",          8,  false, 0xb9e94466cbd23199},
    {"repetition_up_n8_faults",           "repetition",   "input_set",    "up",          8,  true,  0xe1faaeecfa8c4dcf},
    {"repetition_up_n65",                 "repetition",   "input_set",    "up",          65, false, 0x1ef1d0c6c9859edc},
    {"repetition_up_n65_faults",          "repetition",   "input_set",    "up",          65, true,  0xbfa40fbe52991a3c},
    {"repetition_down_n8",                "repetition",   "input_set",    "down",        8,  false, 0x4e123f3a3aff7d3d},
    {"repetition_down_n8_faults",         "repetition",   "input_set",    "down",        8,  true,  0xdbdaea4b696fb062},
    {"repetition_down_n65",               "repetition",   "input_set",    "down",        65, false, 0xc09a93c1f34a6516},
    {"repetition_down_n65_faults",        "repetition",   "input_set",    "down",        65, true,  0x95c0852865381450},
    {"repetition_correlated_n1024",       "repetition",   "input_set",    "correlated",  1024, false, 0x9245d9965c6a216e},
    {"rewind_correlated_n8",              "rewind",       "input_set",    "correlated",  8,  false, 0x907bf499ee133bf},
    {"rewind_correlated_n8_faults",       "rewind",       "input_set",    "correlated",  8,  true,  0x5d720d3d93990018},
    {"rewind_correlated_n65",             "rewind",       "input_set",    "correlated",  65, false, 0x758b983b0b0ee454},
    {"rewind_correlated_n65_faults",      "rewind",       "input_set",    "correlated",  65, true,  0x28305231544cbe2d},
    {"rewind_independent_n8",             "rewind",       "input_set",    "independent", 8,  false, 0xef850b106746bddf},
    {"rewind_independent_n8_faults",      "rewind",       "input_set",    "independent", 8,  true,  0x3d98fb91e94cc0cb},
    {"rewind_independent_n65",            "rewind",       "input_set",    "independent", 65, false, 0xd27f045047b73cc2},
    {"rewind_independent_n65_faults",     "rewind",       "input_set",    "independent", 65, true,  0xf93da2b4ab0425a4},
    {"rewind_burst_n8",                   "rewind",       "input_set",    "burst",       8,  false, 0x902bf7d0e0e0cb99},
    {"rewind_burst_n8_faults",            "rewind",       "input_set",    "burst",       8,  true,  0x2aceeefc2fcb4983},
    {"rewind_burst_n65",                  "rewind",       "input_set",    "burst",       65, false, 0xd39c2492fa1561fc},
    {"rewind_burst_n65_faults",           "rewind",       "input_set",    "burst",       65, true,  0x9eaac100f0d63ef8},
    {"rewind_down_down_n8",               "rewind_down",  "input_set",    "down",        8,  false, 0xa508daeca1e787e9},
    {"rewind_down_down_n8_faults",        "rewind_down",  "input_set",    "down",        8,  true,  0x939dca4c9c6de7ff},
    {"rewind_down_down_n65",              "rewind_down",  "input_set",    "down",        65, false, 0x4f224f874b1420aa},
    {"rewind_down_down_n65_faults",       "rewind_down",  "input_set",    "down",        65, true,  0x6515fe4fe20fe932},
    {"scheduled_correlated_n8",           "scheduled",    "bit_exchange", "correlated",  8,  false, 0x1389fce5c5b34152},
    {"scheduled_correlated_n8_faults",    "scheduled",    "bit_exchange", "correlated",  8,  true,  0x4948f7712a8f8ad0},
    {"scheduled_correlated_n65",          "scheduled",    "bit_exchange", "correlated",  65, false, 0xb5d2336faac5c9c2},
    {"scheduled_correlated_n65_faults",   "scheduled",    "bit_exchange", "correlated",  65, true,  0xbe09730be166fce},
    {"scheduled_independent_n8",          "scheduled",    "bit_exchange", "independent", 8,  false, 0x419b336ac926b334},
    {"scheduled_independent_n8_faults",   "scheduled",    "bit_exchange", "independent", 8,  true,  0xd0aed69b81a0d660},
    {"scheduled_independent_n65",         "scheduled",    "bit_exchange", "independent", 65, false, 0xa35a877631bed7bf},
    {"scheduled_independent_n65_faults",  "scheduled",    "bit_exchange", "independent", 65, true,  0x749af56f0c16b9d5},
    {"scheduled_burst_n8",                "scheduled",    "bit_exchange", "burst",       8,  false, 0x21e794fbf8f5cc3a},
    {"scheduled_burst_n8_faults",         "scheduled",    "bit_exchange", "burst",       8,  true,  0x146ce55cc0cdd879},
    {"scheduled_burst_n65",               "scheduled",    "bit_exchange", "burst",       65, false, 0x7658a17e60798a0c},
    {"scheduled_burst_n65_faults",        "scheduled",    "bit_exchange", "burst",       65, true,  0x4c06a4bd7fd6a071},
    {"hierarchical_correlated_n8",        "hierarchical", "input_set",    "correlated",  8,  false, 0xb70a07b41d1f9267},
    {"hierarchical_correlated_n8_faults", "hierarchical", "input_set",    "correlated",  8,  true,  0x5d5e1fb65d2be78},
    {"hierarchical_correlated_n65",       "hierarchical", "input_set",    "correlated",  65, false, 0x6160131983de2af2},
    {"hierarchical_correlated_n65_faults","hierarchical", "input_set",    "correlated",  65, true,  0x35875f3ee9c43c},
    {"hierarchical_independent_n8",       "hierarchical", "input_set",    "independent", 8,  false, 0x768c5bc4b2a29813},
    {"hierarchical_independent_n8_faults","hierarchical", "input_set",    "independent", 8,  true,  0x8e1484240172a718},
    {"hierarchical_independent_n65",      "hierarchical", "input_set",    "independent", 65, false, 0xa3047b5b17ed8b5a},
    {"hierarchical_independent_n65_faults","hierarchical","input_set",    "independent", 65, true,  0xcb0887f7898d394a},
    {"hierarchical_burst_n8",             "hierarchical", "input_set",    "burst",       8,  false, 0xdd99e0d012f314ea},
    {"hierarchical_burst_n8_faults",      "hierarchical", "input_set",    "burst",       8,  true,  0x68f8f2a866cda77},
    {"hierarchical_burst_n65",            "hierarchical", "input_set",    "burst",       65, false, 0x1c546c7f8859e728},
    {"hierarchical_burst_n65_faults",     "hierarchical", "input_set",    "burst",       65, true,  0xd9690b7564a8763a},
};
// clang-format on

// Adaptive cells.  In input_set and bit_exchange a party's beep depends
// only on the round number, never on the bits of its prefix, so the
// matrix above cannot see a party handed the wrong prefix of the right
// length.  `random` (adaptive) hashes its whole prefix and `leader` drops
// parties on transcript content, so here a beep recomputed from, or
// recorded against, a wrong prefix changes the digest.  The `random`
// n = 256 cells run its 1024-round protocol, whose beep function hashes
// prefixes up to 1024 bits long.
// clang-format off
const Cell kAdaptiveCells[] = {
    {"random_repetition_correlated_n8",           "repetition",        "random", "correlated",  8,   false, 0x75b5fc3abc4f4ca6},
    {"random_repetition_correlated_n8_faults",    "repetition",        "random", "correlated",  8,   true,  0x50c901b0df52f40},
    {"random_repetition_correlated_n65",          "repetition",        "random", "correlated",  65,  false, 0x10efce00edcd9eb0},
    {"random_repetition_correlated_n65_faults",   "repetition",        "random", "correlated",  65,  true,  0xdc67e9238acb53df},
    {"random_repetition_independent_n8",          "repetition",        "random", "independent", 8,   false, 0xd25e20b1861684e},
    {"random_repetition_independent_n8_faults",   "repetition",        "random", "independent", 8,   true,  0xdefeed8ff67d7ab4},
    {"random_repetition_independent_n65",         "repetition",        "random", "independent", 65,  false, 0x3b0321a1365e82fc},
    {"random_repetition_independent_n65_faults",  "repetition",        "random", "independent", 65,  true,  0xabff6442721c359b},
    {"random_repetition_up_n8",                   "repetition",        "random", "up",          8,   false, 0x1dbef342d4561b79},
    {"random_repetition_up_n8_faults",            "repetition",        "random", "up",          8,   true,  0x90be666e50e8e270},
    {"random_repetition_up_n65",                  "repetition",        "random", "up",          65,  false, 0xfcab230b83c8a164},
    {"random_repetition_up_n65_faults",           "repetition",        "random", "up",          65,  true,  0x977316e18d1469ab},
    {"random_rewind_correlated_n8",               "rewind",            "random", "correlated",  8,   false, 0x76431a0677a906bf},
    {"random_rewind_correlated_n8_faults",        "rewind",            "random", "correlated",  8,   true,  0x4940491a7666b4fd},
    {"random_rewind_correlated_n65",              "rewind",            "random", "correlated",  65,  false, 0xc5606906b35aa0d8},
    {"random_rewind_correlated_n65_faults",       "rewind",            "random", "correlated",  65,  true,  0x51381e28b1e985f4},
    {"random_rewind_independent_n8",              "rewind",            "random", "independent", 8,   false, 0xac869afa35e92441},
    {"random_rewind_independent_n8_faults",       "rewind",            "random", "independent", 8,   true,  0xb4213080b6b1ac31},
    {"random_rewind_independent_n65",             "rewind",            "random", "independent", 65,  false, 0xebfcb33e1716c1ba},
    {"random_rewind_independent_n65_faults",      "rewind",            "random", "independent", 65,  true,  0xcaeb8abc1045098},
    {"random_rewind_up_n8",                       "rewind",            "random", "up",          8,   false, 0xfbe5c62314ab024c},
    {"random_rewind_up_n8_faults",                "rewind",            "random", "up",          8,   true,  0x3851bc3959f9ec87},
    {"random_rewind_up_n65",                      "rewind",            "random", "up",          65,  false, 0xcf2c8cb1e6a60ca6},
    {"random_rewind_up_n65_faults",               "rewind",            "random", "up",          65,  true,  0x1624ea1f3dcd11c1},
    {"random_hierarchical_correlated_n8",         "hierarchical",      "random", "correlated",  8,   false, 0x5e8d7a83c4a09653},
    {"random_hierarchical_correlated_n8_faults",  "hierarchical",      "random", "correlated",  8,   true,  0x2d8215d54444f4ce},
    {"random_hierarchical_correlated_n65",        "hierarchical",      "random", "correlated",  65,  false, 0x8602d179c0893a93},
    {"random_hierarchical_correlated_n65_faults", "hierarchical",      "random", "correlated",  65,  true,  0x694de613e04a2a41},
    {"random_hierarchical_independent_n8",        "hierarchical",      "random", "independent", 8,   false, 0x524ea5725ed60b8},
    {"random_hierarchical_independent_n8_faults", "hierarchical",      "random", "independent", 8,   true,  0x1050edc3b78628ac},
    {"random_hierarchical_independent_n65",       "hierarchical",      "random", "independent", 65,  false, 0x24d07c85e3c0a7f},
    {"random_hierarchical_independent_n65_faults", "hierarchical",      "random", "independent", 65,  true,  0x7ace4debbdbf733c},
    {"random_hierarchical_up_n8",                 "hierarchical",      "random", "up",          8,   false, 0xb5e83511a02e4e7},
    {"random_hierarchical_up_n8_faults",          "hierarchical",      "random", "up",          8,   true,  0x65cdfd38c5eb028d},
    {"random_hierarchical_up_n65",                "hierarchical",      "random", "up",          65,  false, 0x242db8978379e3c6},
    {"random_hierarchical_up_n65_faults",         "hierarchical",      "random", "up",          65,  true,  0x872ec88ce727b99e},
    {"random_rewind_down_down_n8",                "rewind_down",       "random", "down",        8,   false, 0xc4df697b17cea39c},
    {"random_rewind_down_down_n8_faults",         "rewind_down",       "random", "down",        8,   true,  0x7628b12792783c4c},
    {"random_rewind_down_down_n65",               "rewind_down",       "random", "down",        65,  false, 0x79bf647adcbc0ad5},
    {"random_rewind_down_down_n65_faults",        "rewind_down",       "random", "down",        65,  true,  0x88c7e0bae47824fa},
    {"random_hierarchical_down_down_n8",          "hierarchical_down", "random", "down",        8,   false, 0xdb87b1fca4f15e7a},
    {"random_hierarchical_down_down_n8_faults",   "hierarchical_down", "random", "down",        8,   true,  0xf07ce07fe0f90bf},
    {"random_hierarchical_down_down_n65",         "hierarchical_down", "random", "down",        65,  false, 0x671030f514341450},
    {"random_hierarchical_down_down_n65_faults",  "hierarchical_down", "random", "down",        65,  true,  0x8d2b7fb8ca9fbee6},
    {"leader_repetition_correlated_n8",           "repetition",        "leader", "correlated",  8,   false, 0xf528a33d6764dcda},
    {"leader_repetition_correlated_n8_faults",    "repetition",        "leader", "correlated",  8,   true,  0xf528a33d6764dcda},
    {"leader_repetition_correlated_n65",          "repetition",        "leader", "correlated",  65,  false, 0xc661d3c762e97b82},
    {"leader_repetition_correlated_n65_faults",   "repetition",        "leader", "correlated",  65,  true,  0x74cf1b5e36403658},
    {"leader_repetition_independent_n8",          "repetition",        "leader", "independent", 8,   false, 0xa478bb4490b70942},
    {"leader_repetition_independent_n8_faults",   "repetition",        "leader", "independent", 8,   true,  0xa478bb4490b70942},
    {"leader_repetition_independent_n65",         "repetition",        "leader", "independent", 65,  false, 0x80e9329a6499ba01},
    {"leader_repetition_independent_n65_faults",  "repetition",        "leader", "independent", 65,  true,  0x207370b2e32d0acb},
    {"leader_repetition_up_n8",                   "repetition",        "leader", "up",          8,   false, 0xfe0478b36ff2cbc9},
    {"leader_repetition_up_n8_faults",            "repetition",        "leader", "up",          8,   true,  0x9ded62615d8f40ab},
    {"leader_repetition_up_n65",                  "repetition",        "leader", "up",          65,  false, 0x924c434614000770},
    {"leader_repetition_up_n65_faults",           "repetition",        "leader", "up",          65,  true,  0xa6b5d664cda911f5},
    {"leader_rewind_correlated_n8",               "rewind",            "leader", "correlated",  8,   false, 0x66eaef7d922d059b},
    {"leader_rewind_correlated_n8_faults",        "rewind",            "leader", "correlated",  8,   true,  0x5cf85360ac94613e},
    {"leader_rewind_correlated_n65",              "rewind",            "leader", "correlated",  65,  false, 0xa105c9ee3235d460},
    {"leader_rewind_correlated_n65_faults",       "rewind",            "leader", "correlated",  65,  true,  0xe4ce1c0b8cfe1740},
    {"leader_rewind_independent_n8",              "rewind",            "leader", "independent", 8,   false, 0x961967f9d7cf2d10},
    {"leader_rewind_independent_n8_faults",       "rewind",            "leader", "independent", 8,   true,  0x180d7bae7e719605},
    {"leader_rewind_independent_n65",             "rewind",            "leader", "independent", 65,  false, 0x8bd10681d4742e3d},
    {"leader_rewind_independent_n65_faults",      "rewind",            "leader", "independent", 65,  true,  0x87aa2dce60ea3370},
    {"leader_rewind_up_n8",                       "rewind",            "leader", "up",          8,   false, 0xe0f03b970c498df8},
    {"leader_rewind_up_n8_faults",                "rewind",            "leader", "up",          8,   true,  0xab6dc7610077013d},
    {"leader_rewind_up_n65",                      "rewind",            "leader", "up",          65,  false, 0x802adb4704b15755},
    {"leader_rewind_up_n65_faults",               "rewind",            "leader", "up",          65,  true,  0x62e0783216a2c466},
    {"leader_hierarchical_correlated_n8",         "hierarchical",      "leader", "correlated",  8,   false, 0xa94d7f78df17f57f},
    {"leader_hierarchical_correlated_n8_faults",  "hierarchical",      "leader", "correlated",  8,   true,  0xd2f51ecb011feeb},
    {"leader_hierarchical_correlated_n65",        "hierarchical",      "leader", "correlated",  65,  false, 0x500439f9da438788},
    {"leader_hierarchical_correlated_n65_faults", "hierarchical",      "leader", "correlated",  65,  true,  0x77552617753ff385},
    {"leader_hierarchical_independent_n8",        "hierarchical",      "leader", "independent", 8,   false, 0x43c56b44a87de877},
    {"leader_hierarchical_independent_n8_faults", "hierarchical",      "leader", "independent", 8,   true,  0x3f7eae25f511ed26},
    {"leader_hierarchical_independent_n65",       "hierarchical",      "leader", "independent", 65,  false, 0x5a512e4d42ed0545},
    {"leader_hierarchical_independent_n65_faults", "hierarchical",      "leader", "independent", 65,  true,  0x6130889b794b1037},
    {"leader_hierarchical_up_n8",                 "hierarchical",      "leader", "up",          8,   false, 0x786dfaeb7448c7c0},
    {"leader_hierarchical_up_n8_faults",          "hierarchical",      "leader", "up",          8,   true,  0x69609d52d68c0f9f},
    {"leader_hierarchical_up_n65",                "hierarchical",      "leader", "up",          65,  false, 0x6bae4c7e98c8eb3c},
    {"leader_hierarchical_up_n65_faults",         "hierarchical",      "leader", "up",          65,  true,  0x4be4bcc09d51093b},
    {"leader_rewind_down_down_n8",                "rewind_down",       "leader", "down",        8,   false, 0x2609d966de7cec34},
    {"leader_rewind_down_down_n8_faults",         "rewind_down",       "leader", "down",        8,   true,  0x2b530fd353723a19},
    {"leader_rewind_down_down_n65",               "rewind_down",       "leader", "down",        65,  false, 0xefb5ff9aeab04e9c},
    {"leader_rewind_down_down_n65_faults",        "rewind_down",       "leader", "down",        65,  true,  0x55088d2ff5dd462e},
    {"leader_hierarchical_down_down_n8",          "hierarchical_down", "leader", "down",        8,   false, 0x4ce03d570a78249e},
    {"leader_hierarchical_down_down_n8_faults",   "hierarchical_down", "leader", "down",        8,   true,  0x67059d394ed5067e},
    {"leader_hierarchical_down_down_n65",         "hierarchical_down", "leader", "down",        65,  false, 0xe0ba7f51777bf266},
    {"leader_hierarchical_down_down_n65_faults",  "hierarchical_down", "leader", "down",        65,  true,  0x7d46a17883efcb7b},
    {"random_rewind_correlated_n256",             "rewind",            "random", "correlated",  256, false, 0xda62c1ed965e25bc},
    {"random_hierarchical_correlated_n256",       "hierarchical",      "random", "correlated",  256, false, 0x6a051bef3ad3c7bb},
    {"random_rewind_down_down_n256",              "rewind_down",       "random", "down",        256, false, 0xbffde5a87881e071},
    {"random_hierarchical_down_down_n256",        "hierarchical_down", "random", "down",        256, false, 0x82315684175f463},
    {"random_repetition_correlated_n256",         "repetition",        "random", "correlated",  256, false, 0xf2080e05a4b13d51},
    {"leader_repetition_correlated_n256",         "repetition",        "leader", "correlated",  256, false, 0x3cc9042c1a666a46},
    {"leader_rewind_correlated_n256",             "rewind",            "leader", "correlated",  256, false, 0xafe20cb3fd8e0e39},
    {"leader_hierarchical_correlated_n256",       "hierarchical",      "leader", "correlated",  256, false, 0x94dfeb9280f7b0c},
    {"leader_rewind_down_down_n256",              "rewind_down",       "leader", "down",        256, false, 0xff04ab8a0d2eecda},
    {"leader_hierarchical_down_down_n256",        "hierarchical_down", "leader", "down",        256, false, 0x70054fa29667a7de},
};
// clang-format on

class CodingGolden : public ::testing::TestWithParam<Cell> {};

TEST_P(CodingGolden, DigestIsPinned) {
  const Cell& cell = GetParam();
  Rng rng(kSeed);
  const service::Workload workload =
      service::MakeWorkload(cell.task, cell.n, rng);
  const std::string channel_name = cell.channel;
  const std::unique_ptr<Channel> channel =
      service::MakeChannel(channel_name, channel_name == "down" ? 0.1 : 0.05);
  const std::unique_ptr<Simulator> sim =
      service::MakeSimulator(cell.sim, cell.task, cell.n);
  const FaultPlan faults =
      cell.faults ? FaultPlan::Parse(kFaultPlan, kFaultSeed) : FaultPlan();
  const SimulationResult result =
      sim->Simulate(*workload.protocol, *channel, faults, rng);
  EXPECT_EQ(Digest(result, rng), cell.digest)
      << std::hex << "0x" << Digest(result, rng);
}

std::string CellName(const ::testing::TestParamInfo<Cell>& cell_info) {
  return cell_info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, CodingGolden, ::testing::ValuesIn(kCells),
                         CellName);
INSTANTIATE_TEST_SUITE_P(Adaptive, CodingGolden,
                         ::testing::ValuesIn(kAdaptiveCells), CellName);

// Direct execution: Execute (the fault-aware overload) with no coding
// layer, one noisy round per protocol round.  The digest covers every
// party's transcript and output and the Rng state after the run.
// Execute runs only T rounds, so its fault plan starts its sleepy window
// early enough to hit every cell: party 2 then hears 0 where the others
// may hear 1, and the loop switches to per-party transcripts.  The r = 3 all-ones cells are E2's
// setup (bench/bench_lower_bound.cc) at eps = 1/3.
struct ExecuteCell {
  const char* name;
  const char* task;  // a service::MakeWorkload name
  int repetitions;   // > 1: the r-repetition InputSet protocol, all-ones
  const char* channel;
  int n;
  bool faults;
  std::uint64_t digest;
};

std::ostream& operator<<(std::ostream& os, const ExecuteCell& cell) {
  return os << cell.name;
}

constexpr const char* kExecuteFaultPlan = "sleepy:2@4-200;babble:5@0-3000:0.3";

std::uint64_t ExecutionDigest(const ExecutionResult& result, const Rng& rng) {
  std::string out;
  for (const BitString& transcript : result.transcripts) {
    AppendBits(out, transcript);
  }
  for (const PartyOutput& output : result.outputs) {
    AppendU64(out, output.size());
    for (const std::uint64_t word : output) AppendU64(out, word);
  }
  for (const std::uint64_t word : rng.SaveState()) AppendU64(out, word);
  return resilience::Fnv1a64(out);
}

// clang-format off
const ExecuteCell kExecuteCells[] = {
    {"input_set_correlated_n8",            "input_set", 1, "correlated",  8,   false, 0xdd41a4fb9ec886fa},
    {"input_set_correlated_n8_faults",     "input_set", 1, "correlated",  8,   true,  0x829f1d285e2b7d7a},
    {"input_set_correlated_n65",           "input_set", 1, "correlated",  65,  false, 0xc9c1d19940775d31},
    {"input_set_correlated_n65_faults",    "input_set", 1, "correlated",  65,  true,  0x38fe6625132ea039},
    {"input_set_independent_n8",           "input_set", 1, "independent", 8,   false, 0x601aee2eaaf24f5d},
    {"input_set_independent_n8_faults",    "input_set", 1, "independent", 8,   true,  0x9c1ea15d7b1d7e3d},
    {"input_set_independent_n65",          "input_set", 1, "independent", 65,  false, 0x8defe055b10f8f65},
    {"input_set_independent_n65_faults",   "input_set", 1, "independent", 65,  true,  0x951d749409571465},
    {"input_set_up_n8",                    "input_set", 1, "up",          8,   false, 0x209408c51d6787cb},
    {"input_set_up_n8_faults",             "input_set", 1, "up",          8,   true,  0x5066311adeef4c07},
    {"input_set_up_n65",                   "input_set", 1, "up",          65,  false, 0x20473d82117a09fd},
    {"input_set_up_n65_faults",            "input_set", 1, "up",          65,  true,  0xeb4e257723edc862},
    {"input_set_down_n8",                  "input_set", 1, "down",        8,   false, 0xd2c5a87b8dfbce87},
    {"input_set_down_n8_faults",           "input_set", 1, "down",        8,   true,  0x1254997ec1b32e4b},
    {"input_set_down_n65",                 "input_set", 1, "down",        65,  false, 0x35152e63a99abc78},
    {"input_set_down_n65_faults",          "input_set", 1, "down",        65,  true,  0xa5ae7b71e868ae11},
    {"random_correlated_n8",               "random",    1, "correlated",  8,   false, 0x277e01eff653a3e3},
    {"random_correlated_n8_faults",        "random",    1, "correlated",  8,   true,  0xc4420edb1ba6d67c},
    {"random_correlated_n65",              "random",    1, "correlated",  65,  false, 0x53000d4f34daa4f},
    {"random_correlated_n65_faults",       "random",    1, "correlated",  65,  true,  0xe7807f40537aaff9},
    {"random_independent_n8",              "random",    1, "independent", 8,   false, 0xa4bbf714fc60a336},
    {"random_independent_n8_faults",       "random",    1, "independent", 8,   true,  0x6be270ae2e552dbe},
    {"random_independent_n65",             "random",    1, "independent", 65,  false, 0xfdb181f45f7020da},
    {"random_independent_n65_faults",      "random",    1, "independent", 65,  true,  0x8afdcbadf9b57075},
    {"random_up_n8",                       "random",    1, "up",          8,   false, 0xd4579e890d3db14},
    {"random_up_n8_faults",                "random",    1, "up",          8,   true,  0xf42da6a18eda738c},
    {"random_up_n65",                      "random",    1, "up",          65,  false, 0x88ed90ffeab71c82},
    {"random_up_n65_faults",               "random",    1, "up",          65,  true,  0x84976c623a476cfc},
    {"random_down_n8",                     "random",    1, "down",        8,   false, 0xc669013f4c5eff03},
    {"random_down_n8_faults",              "random",    1, "down",        8,   true,  0x649e0f0d6e7426c0},
    {"random_down_n65",                    "random",    1, "down",        65,  false, 0xc827fe2fc59a82ca},
    {"random_down_n65_faults",             "random",    1, "down",        65,  true,  0xe8945527259f6dcc},
    {"leader_correlated_n8",               "leader",    1, "correlated",  8,   false, 0x6fd9169775c59d6d},
    {"leader_correlated_n8_faults",        "leader",    1, "correlated",  8,   true,  0x875f08cea8408b0},
    {"leader_correlated_n65",              "leader",    1, "correlated",  65,  false, 0x2d18210513da3c34},
    {"leader_correlated_n65_faults",       "leader",    1, "correlated",  65,  true,  0x6a201f90b8922670},
    {"leader_independent_n8",              "leader",    1, "independent", 8,   false, 0x93bed655c27f7ec6},
    {"leader_independent_n8_faults",       "leader",    1, "independent", 8,   true,  0xf4131fec03566e37},
    {"leader_independent_n65",             "leader",    1, "independent", 65,  false, 0x929d0bde61f47fab},
    {"leader_independent_n65_faults",      "leader",    1, "independent", 65,  true,  0x1bff8e00649f25db},
    {"leader_up_n8",                       "leader",    1, "up",          8,   false, 0x3343b5e323894ed1},
    {"leader_up_n8_faults",                "leader",    1, "up",          8,   true,  0x6ef18b228ebbc603},
    {"leader_up_n65",                      "leader",    1, "up",          65,  false, 0x21e78ae35b4e0ebc},
    {"leader_up_n65_faults",               "leader",    1, "up",          65,  true,  0x65771cc407b86dcd},
    {"leader_down_n8",                     "leader",    1, "down",        8,   false, 0xc3145e61667bd2b4},
    {"leader_down_n8_faults",              "leader",    1, "down",        8,   true,  0xea0b32a7d010d3ff},
    {"leader_down_n65",                    "leader",    1, "down",        65,  false, 0xc04fb36fef5ca61d},
    {"leader_down_n65_faults",             "leader",    1, "down",        65,  true,  0xd24e53449cc07c64},
    {"input_set_r3_all_ones_up_n8",        "input_set", 3, "up",          8,   false, 0x2baf84d791d120d4},
    {"input_set_r3_all_ones_up_n8_faults", "input_set", 3, "up",          8,   true,  0x1cbd15e986256105},
    {"input_set_r3_all_ones_up_n65",       "input_set", 3, "up",          65,  false, 0x42a51e0b77d08f65},
    {"input_set_r3_all_ones_up_n65_faults","input_set", 3, "up",          65,  true,  0x563e85c8b229531f},
};
// clang-format on

class ExecuteGolden : public ::testing::TestWithParam<ExecuteCell> {};

TEST_P(ExecuteGolden, DigestIsPinned) {
  const ExecuteCell& cell = GetParam();
  Rng rng(kSeed);
  std::unique_ptr<Protocol> protocol;
  double eps = std::string(cell.channel) == "down" ? 0.1 : 0.05;
  if (cell.repetitions > 1) {
    const InputSetInstance instance = SampleInputSet(cell.n, rng);
    protocol = MakeRepeatedInputSetProtocol(instance, cell.repetitions,
                                            RoundDecision::kAllOnes);
    eps = 1.0 / 3.0;
  } else {
    protocol = service::MakeWorkload(cell.task, cell.n, rng).protocol;
  }
  const std::unique_ptr<Channel> channel =
      service::MakeChannel(cell.channel, eps);
  const FaultPlan faults = cell.faults
                               ? FaultPlan::Parse(kExecuteFaultPlan, kFaultSeed)
                               : FaultPlan();
  const ExecutionResult result = Execute(*protocol, *channel, faults, rng);
  EXPECT_EQ(ExecutionDigest(result, rng), cell.digest)
      << std::hex << "0x" << ExecutionDigest(result, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExecuteGolden, ::testing::ValuesIn(kExecuteCells),
    [](const ::testing::TestParamInfo<ExecuteCell>& cell_info) {
      return std::string(cell_info.param.name);
    });

// Budget edges.  Input set at n = 8 has T = 16 rounds in two 8-round
// chunks of 580 noisy rounds each, so max_rounds = 870 lands inside the
// last chunk.  The flat scheme checks its budget only before a chunk
// attempt: its final commit completes the run past the budget without
// exhausting it.  The hierarchical scheme checks again before its final
// audit: the same budget exhausts it with every chunk committed and the
// final audit never run.
constexpr std::int64_t kEdgeBudget = 870;

SimulationResult RunBudgetEdge(const Simulator& sim, Rng& rng) {
  const InputSetInstance instance = SampleInputSet(8, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const std::unique_ptr<Channel> channel =
      service::MakeChannel("correlated", 0.05);
  return sim.Simulate(*protocol, *channel, rng);
}

TEST(CodingGoldenBudget, FlatFinalCommitIgnoresTheBudget) {
  RewindSimOptions options;
  options.max_rounds = kEdgeBudget;
  Rng rng(kSeed);
  const SimulationResult result =
      RunBudgetEdge(RewindSimulator(options), rng);
  EXPECT_FALSE(result.budget_exhausted());
  EXPECT_EQ(result.noisy_rounds_used, 1160);
  EXPECT_EQ(result.transcripts.front().size(), 16u);
  EXPECT_EQ(Digest(result, rng), 0x907bf499ee133bfu)
      << std::hex << "0x" << Digest(result, rng);
}

TEST(CodingGoldenBudget, HierarchicalChecksBeforeTheFinalAudit) {
  HierarchicalSimOptions options;
  options.base.max_rounds = kEdgeBudget;
  Rng rng(kSeed);
  const SimulationResult result =
      RunBudgetEdge(HierarchicalSimulator(options), rng);
  EXPECT_TRUE(result.budget_exhausted());
  EXPECT_EQ(result.noisy_rounds_used, 1280);
  EXPECT_EQ(result.transcripts.front().size(), 16u);
  EXPECT_EQ(Digest(result, rng), 0xa3e0cabea03e0350u)
      << std::hex << "0x" << Digest(result, rng);
}

}  // namespace
}  // namespace noisybeeps
