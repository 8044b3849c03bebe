// Injectable filesystem seam for the resilience layer.
//
// Checkpoint/resume (docs/RESILIENCE.md) promises that a run survives
// interruption -- but that promise is only as strong as the I/O paths
// underneath it, and those paths fail in ways unit tests never exercise:
// full disks, torn writes, rejected renames, files that rot on the shelf.
// Fs is the seam that makes those failures injectable, exactly as
// resilience/clock.h made time injectable: ALL checkpoint I/O goes
// through an Fs*, RealFs talks to the OS, and FaultingFs wraps any Fs
// and misbehaves according to a deterministic, seed-driven FailPlan
// (fail_plan.h).  The nblint rule `io-seam-discipline` flags any raw
// filesystem call in src/ outside this file pair.
//
// Error model:
//   - FsError is the ordinary failure: the operation did not (fully)
//     happen and the caller may handle it -- wrap it, clean up, degrade.
//   - InjectedCrash is the simulated SIGKILL: the process is "dead" at
//     that exact boundary.  It must ALWAYS propagate; catching it (even
//     via catch (...) in cleanup paths) breaks crash simulation.  Test
//     harnesses catch it at the outermost level only, then "reboot" by
//     re-running against the surviving files.
#ifndef NOISYBEEPS_FAILPOINT_FS_H_
#define NOISYBEEPS_FAILPOINT_FS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "failpoint/fail_plan.h"

namespace noisybeeps::failpoint {

// An ordinary filesystem failure: open refused, disk full, rename
// rejected, I/O error.  Callers may catch and recover.
class FsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A simulated kill at a failpoint (crash/torn kinds).  Deliberately NOT
// an FsError: recovery code that catches FsError must let this escape,
// or the "crash" quietly turns into a handled error and the
// crash-consistency oracle proves nothing.
class InjectedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The filesystem operations the resilience layer is allowed to perform.
// Small on purpose: whole files in, whole files out, atomic rename --
// the temp+sync+rename checkpoint protocol needs nothing finer, and
// every method is a registered failpoint (fail_plan.h FailOp).
class Fs {
 public:
  virtual ~Fs() = default;

  // Reads the entire file.  Returns nullopt if the file does not exist;
  // throws FsError on any other failure.  Never returns partial data
  // silently -- except under an injected `truncate` fault, which is the
  // point.
  [[nodiscard]] virtual std::optional<std::string> ReadFile(
      const std::string& path) = 0;

  // Creates or replaces the file with exactly `contents`.
  virtual void WriteFile(const std::string& path, std::string_view contents) = 0;

  // Flushes the file's data to stable storage (fsync).
  virtual void SyncFile(const std::string& path) = 0;

  // Atomically replaces `to` with `from` (same filesystem).
  virtual void RenameFile(const std::string& from, const std::string& to) = 0;

  // Deletes the file.  A missing file is a no-op; any other failure
  // throws FsError.
  virtual void RemoveFile(const std::string& path) = 0;
};

// The production filesystem.
class RealFs final : public Fs {
 public:
  [[nodiscard]] std::optional<std::string> ReadFile(
      const std::string& path) override;
  void WriteFile(const std::string& path, std::string_view contents) override;
  void SyncFile(const std::string& path) override;
  void RenameFile(const std::string& from, const std::string& to) override;
  void RemoveFile(const std::string& path) override;

  // A shared instance (the default when ResilienceOptions.fs is null).
  [[nodiscard]] static RealFs* Instance();
};

// Wraps an inner Fs and injects the faults described by a FailPlan.
//
// Each operation increments that op's hit counter (counted from 0),
// then applies the FIRST plan spec whose (op, window) matches -- or
// passes through untouched if none does.  With an empty plan a
// FaultingFs is a pure counting pass-through, which is how the
// crash-consistency oracle enumerates the failpoints of a workload
// before attacking each one.
//
// A spec counts as "fired" only when it actually injected something: a
// truncate/corrupt spec matching a read of a MISSING file does not fire
// (there is nothing to damage) and the read passes through.  The chaos
// soak's coverage assertion leans on this distinction.
//
// Latency faults are recorded (InjectedLatencyMillis) and forwarded to
// an optional sleeper callback; FaultingFs never sleeps on its own, so
// tests stay fast and the failpoint layer stays below resilience (no
// dependency on resilience::Clock).
//
// Not thread-safe; the resilience layer performs all checkpoint I/O on
// the engine's main thread between batches, which is also what makes
// hit indices worker-count-independent.
class FaultingFs final : public Fs {
 public:
  // `inner` must outlive this object.
  explicit FaultingFs(Fs* inner, FailPlan plan = {});

  [[nodiscard]] std::optional<std::string> ReadFile(
      const std::string& path) override;
  void WriteFile(const std::string& path, std::string_view contents) override;
  void SyncFile(const std::string& path) override;
  void RenameFile(const std::string& from, const std::string& to) override;
  void RemoveFile(const std::string& path) override;

  [[nodiscard]] const FailPlan& plan() const { return plan_; }

  // Invocations of `op` seen so far (injected or not).
  [[nodiscard]] std::int64_t HitCount(FailOp op) const;

  // Per-spec injection counts, parallel to plan().specs().
  [[nodiscard]] const std::vector<std::int64_t>& SpecFires() const {
    return fires_;
  }

  // Total injections across all specs.
  [[nodiscard]] std::int64_t TotalInjected() const { return injected_; }

  // Sum of latency-fault milliseconds recorded so far.
  [[nodiscard]] std::int64_t InjectedLatencyMillis() const {
    return latency_millis_;
  }

  // Installs a callback invoked with the milliseconds of each latency
  // fault (e.g. to really sleep, or to advance a FakeClock).
  void SetSleeper(std::function<void(std::int64_t)> sleeper) {
    sleeper_ = std::move(sleeper);
  }

 private:
  // First spec matching (op, hit), or nullptr.  On match *index is the
  // spec's position in the plan.
  [[nodiscard]] const FailSpec* Match(FailOp op, std::int64_t hit,
                                      std::size_t* index) const;
  // Consumes this op's next hit index and resolves the matching spec.
  [[nodiscard]] const FailSpec* NextHit(FailOp op, std::size_t* index,
                                        std::int64_t* hit);
  void Fired(std::size_t index);
  // Shared fail/crash/latency handling for the no-payload operations
  // (sync/rename/remove).  Returns after recording any latency fault;
  // throws for fail/crash.
  void InjectSimple(const FailSpec* spec, std::size_t index,
                    const std::string& what);

  Fs* inner_;
  FailPlan plan_;
  std::array<std::int64_t, kNumFailOps> hits_{};
  std::vector<std::int64_t> fires_;
  std::int64_t injected_ = 0;
  std::int64_t latency_millis_ = 0;
  std::function<void(std::int64_t)> sleeper_;
};

}  // namespace noisybeeps::failpoint

#endif  // NOISYBEEPS_FAILPOINT_FS_H_
