// The TrialCheckpoint format: versioned, checksummed, atomically written.
//
// A checkpoint captures everything needed to resume an interrupted trial
// sweep with bit-identical results: the parent Rng's state at entry (trial
// generators are a pure function of that state and the trial index, so
// only MISSING indices need re-running), a caller-supplied config hash
// (so a checkpoint is never resumed under different parameters), and one
// record per completed trial -- its encoded result payload plus its retry
// ledger (so the resumed RunReport matches the uninterrupted one).
//
// Wire format (all integers u64 little-endian):
//   magic "NBCKPT01" | version | config_hash | rng_state[4] | num_trials |
//   num_records | records... | fnv1a64 checksum of all preceding bytes
// each record:
//   trial_index | abandoned | num_attempts |
//   (failure, backoff_millis) per attempt | payload_size | payload bytes
//
// Durability: WriteCheckpointAtomic is the ONLY sanctioned writer (nblint
// rule checkpoint-atomicity): it writes "<path>.tmp", syncs it to stable
// storage, then renames, so a SIGKILL at any instant leaves either the
// previous checkpoint or the new one, never a torn file -- and a fault at
// any step unlinks the temp file before reporting.  Loading is loud: a
// truncated, corrupt, mismatched, or future-versioned file throws
// CheckpointError rather than silently restarting the sweep.
//
// All I/O goes through the failpoint::Fs seam (failpoint/fs.h, enforced
// by the nblint rule io-seam-discipline), so every one of
// these promises is testable under injected faults; the Fs-less
// overloads below delegate to RealFs.
#ifndef NOISYBEEPS_RESILIENCE_CHECKPOINT_H_
#define NOISYBEEPS_RESILIENCE_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "failpoint/fs.h"
#include "resilience/outcome.h"

namespace noisybeeps::resilience {

// Loud failure for any checkpoint defect: corrupt bytes, version from the
// future, or a resume under a different configuration.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error("checkpoint: " + what) {}
};

// FNV-1a over raw bytes; used for the file checksum and for callers'
// config hashes / result fingerprints.
[[nodiscard]] std::uint64_t Fnv1a64(std::string_view bytes);

// --- byte-level helpers (shared by the checkpoint and result codecs) ----

void AppendU64(std::string& out, std::uint64_t v);
void AppendF64(std::string& out, double v);
// Length-prefixed byte string.
void AppendBytes(std::string& out, std::string_view bytes);

// Sequential reader; every accessor throws CheckpointError("truncated
// checkpoint data") on short reads.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint64_t U64();
  [[nodiscard]] double F64();
  // Reads a length prefix then that many bytes.
  [[nodiscard]] std::string_view Bytes();
  [[nodiscard]] bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// --- the checkpoint itself ----------------------------------------------

struct TrialRecord {
  std::int64_t trial_index = 0;
  TrialLedger ledger;
  // The adapter-encoded trial result (opaque to the checkpoint layer).
  std::string payload;

  friend bool operator==(const TrialRecord&, const TrialRecord&) = default;
};

inline constexpr std::uint64_t kCheckpointVersion = 1;

struct TrialCheckpoint {
  std::uint64_t config_hash = 0;
  // The parent Rng's SaveState() at ResilientTrials entry.
  std::array<std::uint64_t, 4> rng_state{};
  std::int64_t num_trials = 0;
  // Sorted by trial_index, strictly increasing, indices in
  // [0, num_trials).
  std::vector<TrialRecord> records;

  [[nodiscard]] std::string Serialize() const;
  // Throws CheckpointError on bad magic, future version, truncation,
  // checksum mismatch, or malformed records.
  [[nodiscard]] static TrialCheckpoint Parse(std::string_view bytes);

  friend bool operator==(const TrialCheckpoint&,
                         const TrialCheckpoint&) = default;
};

// Writes serialized bytes to "<path>.tmp", syncs them to stable storage,
// then renames onto `path` (atomic on POSIX).  On an I/O fault at any
// step the temp file is unlinked (best effort) before a CheckpointError
// is thrown; an InjectedCrash (simulated kill) always propagates
// untouched.
void WriteCheckpointAtomic(failpoint::Fs& fs, const std::string& path,
                           const TrialCheckpoint& checkpoint);
// Same, against the real filesystem.
void WriteCheckpointAtomic(const std::string& path,
                           const TrialCheckpoint& checkpoint);

// Loads and parses `path`.  A missing file returns nullopt (fresh start);
// an unreadable or corrupt file throws CheckpointError.
[[nodiscard]] std::optional<TrialCheckpoint> LoadCheckpoint(
    failpoint::Fs& fs, const std::string& path);
// Same, against the real filesystem.
[[nodiscard]] std::optional<TrialCheckpoint> LoadCheckpoint(
    const std::string& path);

}  // namespace noisybeeps::resilience

#endif  // NOISYBEEPS_RESILIENCE_CHECKPOINT_H_
