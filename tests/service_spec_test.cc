// JobSpec identity: the canonical config string and the two hashes
// derived from it.  The load-bearing change under test is PR 8's
// config-hash extension: the FAIL plan (and its seed) is part of the
// checkpoint resume guard, so a chaos run can never silently resume from
// an incompatible clean-run checkpoint -- the mismatch regression at the
// bottom drives RunJob end-to-end to prove the refusal is real, not just
// a different number.  The burst test at the bottom holds RunJob's
// schedule-independence on a channel that keeps state.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>

#include "resilience/checkpoint.h"
#include "resilience/resilient_trials.h"
#include "service/job_spec.h"
#include "service/workload.h"

namespace noisybeeps::service {
namespace {

namespace stdfs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (stdfs::path(::testing::TempDir()) / name).string();
}

// The small fast workload the soak scripts also use.
JobSpec FastSpec() {
  JobSpec spec;
  spec.task = "input_set";
  spec.channel = "correlated";
  spec.sim = "repetition";
  spec.n = 8;
  spec.eps = 0.05;
  spec.trials = 9;
  spec.seed = 21;
  return spec;
}

TEST(JobSpec, CanonicalStringSpellsEveryConfigFieldInOrder) {
  JobSpec spec = FastSpec();
  spec.fault_plan = "crash:3@2";
  spec.fault_seed = 7;
  spec.fail_plan = "fail:write@0";
  spec.fail_seed = 11;
  const std::string canon = spec.CanonicalConfigString();
  // nbsim's historical prefix, extended with the fail-plan fields.
  const char* const keys[] = {
      "task=",         "channel=",    "sim=",        "n=",
      "eps=",          "faults=",     "fault_seed=", "max_attempts=",
      "round_budget=", "timeout_ms=", "backoff_ms=", "fail=",
      "fail_seed=",
  };
  std::size_t pos = 0;
  for (const char* key : keys) {
    const std::size_t at = canon.find(key, pos);
    ASSERT_NE(at, std::string::npos) << key << " missing in: " << canon;
    pos = at + 1;
  }
  // trials/seed/deadline are deliberately NOT config: trials and seed are
  // resume-checked from the checkpoint itself, deadline is pure QoS.
  EXPECT_EQ(canon.find("trials="), std::string::npos) << canon;
  EXPECT_EQ(canon.find("seed=21"), std::string::npos) << canon;
  EXPECT_EQ(canon.find("deadline"), std::string::npos) << canon;
}

TEST(JobSpec, CanonicalStringNormalizesPlanSpelling) {
  JobSpec a = FastSpec();
  JobSpec b = FastSpec();
  // Same plan, different surface spelling: an empty last-hit and '*'
  // both mean forever, and ToString() pins one spelling.
  a.fail_plan = "fail:write@0-*";
  b.fail_plan = "fail:write@0-";
  EXPECT_EQ(a.CanonicalConfigString(), b.CanonicalConfigString());
  EXPECT_EQ(a.ConfigHash(), b.ConfigHash());
}

TEST(JobSpec, ConfigHashCoversTheFailPlan) {
  const JobSpec clean = FastSpec();
  JobSpec chaotic = FastSpec();
  chaotic.fail_plan = "fail:write@0";
  EXPECT_NE(clean.ConfigHash(), chaotic.ConfigHash());
  EXPECT_NE(clean.CacheKey(), chaotic.CacheKey());

  JobSpec reseeded = chaotic;
  reseeded.fail_seed = 99;
  EXPECT_NE(chaotic.ConfigHash(), reseeded.ConfigHash());
}

TEST(JobSpec, ConfigHashExcludesTrialsSeedAndDeadline) {
  const JobSpec base = FastSpec();
  JobSpec more_trials = base;
  more_trials.trials = 100;
  JobSpec reseeded = base;
  reseeded.seed = 999;
  JobSpec hurried = base;
  hurried.deadline_millis = 50;
  EXPECT_EQ(base.ConfigHash(), more_trials.ConfigHash());
  EXPECT_EQ(base.ConfigHash(), reseeded.ConfigHash());
  EXPECT_EQ(base.ConfigHash(), hurried.ConfigHash());
}

TEST(JobSpec, CacheKeyCoversTrialsAndSeedButNeverDeadline) {
  const JobSpec base = FastSpec();
  JobSpec more_trials = base;
  more_trials.trials = 100;
  JobSpec reseeded = base;
  reseeded.seed = 999;
  JobSpec hurried = base;
  hurried.deadline_millis = 50;
  EXPECT_NE(base.CacheKey(), more_trials.CacheKey());
  EXPECT_NE(base.CacheKey(), reseeded.CacheKey());
  // Identical work under different deadlines shares a cache entry.
  EXPECT_EQ(base.CacheKey(), hurried.CacheKey());
}

TEST(JobSpecValidate, RejectsUnknownNamesAndBadRanges) {
  JobSpec spec = FastSpec();
  spec.task = "telepathy";
  EXPECT_THROW(ValidateJobSpec(spec), std::invalid_argument);
  spec = FastSpec();
  spec.channel = "carrier_pigeon";
  EXPECT_THROW(ValidateJobSpec(spec), std::invalid_argument);
  spec = FastSpec();
  spec.sim = "vibes";
  EXPECT_THROW(ValidateJobSpec(spec), std::invalid_argument);
  spec = FastSpec();
  spec.n = 1;
  EXPECT_THROW(ValidateJobSpec(spec), std::invalid_argument);
  spec = FastSpec();
  spec.eps = 1.0;
  EXPECT_THROW(ValidateJobSpec(spec), std::invalid_argument);
  spec = FastSpec();
  spec.max_attempts = 0;
  EXPECT_THROW(ValidateJobSpec(spec), std::invalid_argument);
  spec = FastSpec();
  spec.deadline_millis = -1;
  EXPECT_THROW(ValidateJobSpec(spec), std::invalid_argument);
}

TEST(JobSpecValidate, RejectsMalformedPlansAndOutOfRangeParties) {
  JobSpec spec = FastSpec();
  spec.fail_plan = "fail:write@";
  EXPECT_THROW(ValidateJobSpec(spec), std::invalid_argument);
  spec = FastSpec();
  spec.fault_plan = "not a plan";
  EXPECT_THROW(ValidateJobSpec(spec), std::invalid_argument);
  spec = FastSpec();
  spec.fault_plan = "crash:" + std::to_string(spec.n) + "@1";  // party == n
  EXPECT_THROW(ValidateJobSpec(spec), std::invalid_argument);
  spec = FastSpec();
  EXPECT_NO_THROW(ValidateJobSpec(spec));
}

// --- the PR 8 mismatch regression ----------------------------------------
//
// A checkpoint written by a clean run must NOT be resumable by the same
// spec with a fail plan attached (or vice versa): the fail plan changes
// what the run DOES, so resuming across it would splice two different
// computations into one result file.

void RemoveCheckpointDebris(const std::string& path) {
  stdfs::remove(path);
  stdfs::remove(path + ".tmp");
  stdfs::remove(path + ".corrupt");
}

TEST(JobSpecResume, FailPlanMismatchRefusesTheCheckpoint) {
  const std::string path = TempPath("spec_mismatch.nbckpt");
  RemoveCheckpointDebris(path);

  JobExecution exec;
  exec.checkpoint_path = path;
  exec.checkpoint_every = 2;
  exec.halt_after_checkpoints = 1;

  // A clean run leaves a mid-sweep checkpoint behind.
  const JobSpec clean = FastSpec();
  EXPECT_THROW((void)RunJob(clean, exec), resilience::RunInterrupted);
  ASSERT_TRUE(stdfs::exists(path));

  // The same job "under chaos" must refuse to resume it: different fail
  // plan => different config hash => CheckpointError, not a quiet splice.
  JobSpec chaotic = clean;
  chaotic.fail_plan = "latency:sync@0-*:1";
  exec.halt_after_checkpoints = 0;
  EXPECT_THROW((void)RunJob(chaotic, exec), resilience::CheckpointError);

  // Control: the IDENTICAL spec resumes fine and lands on the baseline.
  JobExecution fresh;
  const JobResult baseline = RunJob(clean, fresh);
  const JobResult resumed = RunJob(clean, exec);
  EXPECT_EQ(resumed.results_fingerprint, baseline.results_fingerprint);
  EXPECT_GT(resumed.report.resumed_trials, 0);
  RemoveCheckpointDebris(path);
}

TEST(JobSpecResume, FailSeedMismatchAloneRefusesTheCheckpoint) {
  const std::string path = TempPath("spec_seed_mismatch.nbckpt");
  RemoveCheckpointDebris(path);

  JobSpec chaotic = FastSpec();
  // An injection window far past this workload's op counts: the plan
  // never fires, so the run completes -- but it is still part of the
  // job's identity.
  chaotic.fail_plan = "corrupt:read@1000:1";
  chaotic.fail_seed = 1;

  JobExecution exec;
  exec.checkpoint_path = path;
  exec.checkpoint_every = 2;
  exec.halt_after_checkpoints = 1;
  EXPECT_THROW((void)RunJob(chaotic, exec), resilience::RunInterrupted);

  JobSpec reseeded = chaotic;
  reseeded.fail_seed = 2;  // same plan text, different corruption stream
  exec.halt_after_checkpoints = 0;
  EXPECT_THROW((void)RunJob(reseeded, exec), resilience::CheckpointError);
  RemoveCheckpointDebris(path);
}

// The burst channel keeps its hidden state in the channel object.  Each
// trial gets its own channel, so a trial's noise depends on its own rng
// alone: the same fingerprint at any worker count, and from a run halted
// after every checkpoint and resumed each time, as RunJob promises.  The
// raw simulator (one round per protocol round) lets every flip reach the
// result, so a trial that inherited a burst from the trial before it
// would show.
TEST(JobSpecResume, BurstChannelTrialsAreIndependentOfTheSchedule) {
  JobSpec spec = FastSpec();
  spec.channel = "burst";
  spec.sim = "raw";
  spec.n = 16;
  spec.eps = 0.1;
  spec.trials = 64;
  spec.seed = 3;
  JobExecution serial;
  serial.num_workers = 1;
  const JobResult baseline = RunJob(spec, serial);

  JobExecution parallel;
  parallel.num_workers = 4;
  EXPECT_EQ(RunJob(spec, parallel).results_fingerprint,
            baseline.results_fingerprint);

  const std::string path = TempPath("spec_burst_resume.nbckpt");
  RemoveCheckpointDebris(path);
  JobExecution exec;
  exec.checkpoint_path = path;
  exec.checkpoint_every = 8;
  exec.halt_after_checkpoints = 1;
  exec.num_workers = 1;
  int halts = 0;
  std::optional<JobResult> resumed;
  while (!resumed.has_value()) {
    try {
      resumed = RunJob(spec, exec);
    } catch (const resilience::RunInterrupted&) {
      ++halts;
    }
  }
  EXPECT_EQ(halts, 7);
  EXPECT_EQ(resumed->results_fingerprint, baseline.results_fingerprint);
  RemoveCheckpointDebris(path);
}

}  // namespace
}  // namespace noisybeeps::service
