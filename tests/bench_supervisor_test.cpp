// Crash-tolerant sweep supervision: RESULT-line round-trips, retry with
// resume after a mid-run SIGKILL, sweep points kept as jobs in the durable
// queue (a re-invocation runs nothing done, a point left running resumes
// with its checkpoint and attempt count, a torn WAL tail reruns only its
// point), and runWithCheckpoints producing the same result as an
// uninterrupted run.
#include "bench/supervisor.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/service/queue.hpp"
#include "src/trace/nus.hpp"
#include "src/util/serialize.hpp"

namespace hdtn::bench {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const std::string& name) {
  return (fs::temp_directory_path() /
          (name + "_" + std::to_string(::getpid())))
      .string();
}

/// A path that is removed (file or directory) before and after the test.
struct TempPath {
  explicit TempPath(const std::string& name) : path(tempPath(name)) {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ~TempPath() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ResultLineTest, RoundTripsThroughFormatAndParse) {
  const std::vector<double> values = {0.123456789012345678, 2.0, -7.5e-12};
  const std::string line = formatResultLine("fig2a:3:1:2", values);
  EXPECT_EQ(line.substr(0, 19), "RESULT fig2a:3:1:2 ");
  std::vector<double> parsed;
  ASSERT_TRUE(parseResultLine("noise\n" + line + "trailing\n",
                              "fig2a:3:1:2", &parsed));
  EXPECT_EQ(parsed, values);
}

TEST(ResultLineTest, IgnoresOtherKeysAndMalformedLines) {
  std::vector<double> parsed;
  EXPECT_FALSE(parseResultLine("RESULT other:0:0:1 1 2\n", "fig:0:0:1",
                               &parsed));
  EXPECT_FALSE(parseResultLine("RESULT fig:0:0:1 \n", "fig:0:0:1", &parsed));
  EXPECT_FALSE(parseResultLine("", "fig:0:0:1", &parsed));
}

SupervisorOptions fastOptions() {
  SupervisorOptions options;
  options.pointTimeoutSeconds = 10.0;
  options.maxAttempts = 3;
  options.backoffBaseSeconds = 0.01;
  return options;
}

/// Opens the queue a supervised sweep keeps in `dir`.
struct SweepQueue {
  explicit SweepQueue(const std::string& dir)
      : queue(dir, service::QueueLimits{}) {
    std::string error;
    EXPECT_TRUE(queue.open(&error, nullptr)) << error;
  }
  service::WorkQueue queue;
};

TEST(SuperviseOnePointTest, JournalHitRunsNothing) {
  TempPath dir("hdtn_supervisor_hit_test");
  SweepQueue sweep(dir.path);
  std::string error;
  ASSERT_EQ(sweep.queue.submit("p:0:0:1", 0, "", &error), 1u) << error;
  sweep.queue.markDone(1, "4 5");
  // /bin/false as the child: if the supervisor ran it, the point would fail.
  const auto values = superviseOnePoint(fastOptions(), sweep.queue, "p:0:0:1",
                                        {"/bin/false"}, "", &error);
  ASSERT_TRUE(values.has_value()) << error;
  EXPECT_EQ(*values, (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ(sweep.queue.find(1)->attempts, 0);
}

TEST(SuperviseOnePointTest, RecoversACrashedPointWithinTheRetryBudget) {
  TempPath dir("hdtn_supervisor_retry_test");
  TempPath marker("hdtn_supervisor_retry_marker");
  SweepQueue sweep(dir.path);
  // First attempt: no marker → create it and die to SIGKILL mid-"run".
  // Second attempt: marker present → print the RESULT line and succeed.
  const std::string script = "if [ ! -f '" + marker.path + "' ]; then "
                             "touch '" + marker.path + "'; kill -9 $$; fi; "
                             "echo 'RESULT p:1:2:3 0.5 0.25'";
  std::string error;
  const auto values =
      superviseOnePoint(fastOptions(), sweep.queue, "p:1:2:3",
                        {"/bin/sh", "-c", script}, "", &error);
  ASSERT_TRUE(values.has_value()) << error;
  EXPECT_EQ(*values, (std::vector<double>{0.5, 0.25}));
  // Success is the job's result, so a re-supervised point skips the child.
  const service::JobRecord* job = sweep.queue.find(1);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->state, service::JobState::kDone);
  EXPECT_EQ(job->attempts, 2);
  EXPECT_EQ(job->result, "0.5 0.25");
}

TEST(SuperviseOnePointTest, ExhaustsTheAttemptBudgetAndReportsWhy) {
  TempPath dir("hdtn_supervisor_budget_test");
  SweepQueue sweep(dir.path);
  SupervisorOptions options = fastOptions();
  options.maxAttempts = 2;
  std::string error;
  const auto values = superviseOnePoint(options, sweep.queue, "p:0:0:1",
                                        {"/bin/false"}, "", &error);
  EXPECT_FALSE(values.has_value());
  EXPECT_NE(error.find("p:0:0:1"), std::string::npos);
  EXPECT_NE(error.find("2 attempt(s)"), std::string::npos);
  EXPECT_NE(error.find("exit code 1"), std::string::npos);
  ASSERT_NE(sweep.queue.find(1), nullptr);
  EXPECT_EQ(sweep.queue.find(1)->state, service::JobState::kFailed);
}

TEST(SuperviseOnePointTest, DeletesTheCheckpointBeforeTheFinalAttempt) {
  TempPath dir("hdtn_supervisor_ckpt_test");
  TempPath checkpoint("hdtn_supervisor_ckpt_test.ckpt");
  {
    std::ofstream out(checkpoint.path);
    out << "pretend checkpoint";
  }
  SweepQueue sweep(dir.path);
  SupervisorOptions options = fastOptions();
  options.maxAttempts = 2;
  // The child succeeds only once the checkpoint is gone — exactly the
  // corrupt-checkpoint-keeps-crashing-the-child situation.
  const std::string script = "if [ -f '" + checkpoint.path + "' ]; then "
                             "exit 9; fi; echo 'RESULT p:0:0:2 1'";
  std::string error;
  const auto values =
      superviseOnePoint(options, sweep.queue, "p:0:0:2",
                        {"/bin/sh", "-c", script}, checkpoint.path, &error);
  ASSERT_TRUE(values.has_value()) << error;
  EXPECT_EQ(*values, (std::vector<double>{1.0}));
}

/// A stand-in for a bench binary in --point mode: a /bin/sh script that
/// appends its --point key to `runLog` and prints a RESULT line derived
/// from the key. With `needCheckpoint` it fails unless the
/// --point-checkpoint file exists, and logs "resumed KEY" when it does.
std::string writePointScript(const std::string& path,
                             const std::string& runLog,
                             bool needCheckpoint) {
  std::ofstream out(path);
  out << "#!/bin/sh\n"
         "key=${1#--point=}\n"
         "ckpt=${2#--point-checkpoint=}\n";
  if (needCheckpoint) {
    out << "[ -f \"$ckpt\" ] || exit 9\n"
           "echo \"resumed $key\" >> '" << runLog << "'\n";
  } else {
    out << "echo \"$key\" >> '" << runLog << "'\n";
  }
  out << "echo \"RESULT $key ${key##*:} 0.5 0.25\"\n";
  out.close();
  fs::permissions(path, fs::perms::owner_all);
  return path;
}

CommonArgs sweepArgs(const std::string& dir) {
  CommonArgs common;
  common.superviseJournal = dir;
  common.pointTimeoutSeconds = 10.0;
  return common;
}

/// What one runSupervisedSweep call printed and stored, per task.
struct SweepRun {
  bool ok = false;
  std::string out;
  std::string err;
  std::vector<std::vector<double>> values = std::vector<std::vector<double>>(4);
};

/// Runs the sweep "fig" over `axes` and `seeds` (by default 2 x 2 seeds)
/// through runSupervisedSweep, with `script` as the bench binary.
SweepRun runSweep(const std::string& dir, const std::string& script,
                  const std::vector<SweepAxis>& axes = {{"xi", 2}},
                  int seeds = 2) {
  SweepRun run;
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  run.ok = runSupervisedSweep(
      sweepArgs(dir), script.c_str(), "fig", axes, seeds, 3,
      [&](std::size_t task, const std::vector<double>& values) {
        run.values[task] = values;
      });
  run.err = testing::internal::GetCapturedStderr();
  run.out = testing::internal::GetCapturedStdout();
  return run;
}

std::size_t countOf(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(SupervisedSweepTest, SecondInvocationStartsNoChild) {
  TempPath dir("hdtn_sweep_again_test");
  TempPath script("hdtn_sweep_again_test.sh");
  TempPath runLog("hdtn_sweep_again_test.log");
  writePointScript(script.path, runLog.path, false);
  const SweepRun first = runSweep(dir.path, script.path);
  ASSERT_TRUE(first.ok) << first.err;
  EXPECT_EQ(readFile(runLog.path), "fig:0:1\nfig:0:2\nfig:1:1\nfig:1:2\n");
  EXPECT_EQ(first.values[3], (std::vector<double>{2.0, 0.5, 0.25}));

  const SweepRun again = runSweep(dir.path, script.path);
  ASSERT_TRUE(again.ok) << again.err;
  EXPECT_EQ(countOf(readFile(runLog.path), "\n"), 4u) << "a child ran";
  EXPECT_EQ(countOf(again.out, "(journaled)"), 4u) << again.out;
  EXPECT_NE(again.out.find("(4 point(s) already done)"), std::string::npos);
  EXPECT_EQ(again.values, first.values);
}

TEST(SupervisedSweepTest, RunningPointResumesWithItsCheckpointAndAttempts) {
  TempPath dir("hdtn_sweep_resume_test");
  TempPath script("hdtn_sweep_resume_test.sh");
  TempPath runLog("hdtn_sweep_resume_test.log");
  writePointScript(script.path, runLog.path, true);
  {
    // A supervisor killed during the first point's first attempt leaves
    // the job running and the point's checkpoint on disk.
    SweepQueue sweep(dir.path);
    std::string error;
    ASSERT_EQ(sweep.queue.submit("fig:1", 0, "", &error), 1u) << error;
    sweep.queue.markRunning(1);
    std::ofstream(dir.path + "/fig_1.ckpt") << "checkpoint";
  }
  // A one-point sweep; the script fails unless the checkpoint is there.
  const SweepRun run = runSweep(dir.path, script.path, {}, 1);
  ASSERT_TRUE(run.ok) << run.err;
  EXPECT_EQ(readFile(runLog.path), "resumed fig:1\n");
  EXPECT_EQ(run.values[0], (std::vector<double>{1.0, 0.5, 0.25}));
  SweepQueue reopened(dir.path);
  ASSERT_EQ(reopened.queue.jobs().size(), 1u);
  const service::JobRecord* job = reopened.queue.find(1);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->state, service::JobState::kDone);
  EXPECT_EQ(job->attempts, 2);
}

TEST(SupervisedSweepTest, TornWalTailRerunsOnlyThatPoint) {
  TempPath dir("hdtn_sweep_torn_test");
  TempPath script("hdtn_sweep_torn_test.sh");
  TempPath runLog("hdtn_sweep_torn_test.log");
  writePointScript(script.path, runLog.path, false);
  ASSERT_TRUE(runSweep(dir.path, script.path).ok);
  // A supervisor killed while appending the last point's "done" line
  // leaves that line torn: cut the WAL in the middle of it.
  const std::string walPath = dir.path + "/queue.wal";
  std::string wal = readFile(walPath);
  ASSERT_EQ(wal.back(), '\n');
  const std::size_t lastLine = wal.rfind('\n', wal.size() - 2) + 1;
  ASSERT_NE(wal.find("\"state\":\"done\"", lastLine), std::string::npos);
  fs::resize_file(walPath, lastLine + (wal.size() - lastLine) / 2);

  const SweepRun again = runSweep(dir.path, script.path);
  ASSERT_TRUE(again.ok) << again.err;
  EXPECT_NE(again.err.find("journal replay: queue.wal line"),
            std::string::npos)
      << again.err;
  EXPECT_EQ(readFile(runLog.path),
            "fig:0:1\nfig:0:2\nfig:1:1\nfig:1:2\nfig:1:2\n");
  EXPECT_EQ(countOf(again.out, "(journaled)"), 3u) << again.out;
  EXPECT_EQ(again.values[3], (std::vector<double>{2.0, 0.5, 0.25}));
}

core::EngineParams smallParams() {
  core::EngineParams params;
  params.protocol.kind = core::ProtocolKind::kMbtQm;
  params.internetAccessFraction = 0.3;
  params.newFilesPerDay = 10;
  params.fileTtlDays = 2;
  params.seed = 33;
  params.frequentContactPeriod = kDay;
  params.faults.messageLossRate = 0.1;
  return params;
}

trace::ContactTrace smallTrace() {
  trace::NusParams p;
  p.students = 30;
  p.courses = 6;
  p.coursesPerStudent = 2;
  p.days = 3;
  p.seed = 7;
  return trace::generateNus(p);
}

TEST(RunWithCheckpointsTest, MatchesAnUninterruptedRun) {
  TempPath checkpoint("hdtn_runwithckpt_plain.ckpt");
  const trace::ContactTrace trace = smallTrace();
  const core::EngineParams params = smallParams();
  const core::EngineResult plain = core::runSimulation(trace, params);
  const core::EngineResult checkpointed =
      runWithCheckpoints(trace, params, checkpoint.path, 6 * kHour);
  EXPECT_EQ(plain.delivery.queries, checkpointed.delivery.queries);
  EXPECT_EQ(plain.delivery.filesDelivered,
            checkpointed.delivery.filesDelivered);
  EXPECT_EQ(plain.delivery.fileRatio, checkpointed.delivery.fileRatio);
  EXPECT_EQ(plain.delivery.meanFileDelaySeconds,
            checkpointed.delivery.meanFileDelaySeconds);
  // The final checkpoint is left behind for the supervisor to clean up.
  EXPECT_TRUE(fs::exists(checkpoint.path));
}

TEST(RunWithCheckpointsTest, ResumesFromTheCheckpointLeftByAKilledRun) {
  TempPath checkpoint("hdtn_runwithckpt_resume.ckpt");
  const trace::ContactTrace trace = smallTrace();
  const core::EngineParams params = smallParams();
  const core::EngineResult plain = core::runSimulation(trace, params);
  // Simulate the first attempt dying mid-run: run only to the second
  // checkpoint boundary and save, exactly as the loop in runWithCheckpoints
  // would have before a SIGKILL.
  {
    core::Engine engine(trace, params);
    engine.runUntil(6 * kHour);
    engine.runUntil(12 * kHour);
    Serializer extra;
    extra.i64(18 * kHour);
    engine.saveCheckpoint(checkpoint.path, extra.bytes());
  }
  const core::EngineResult resumed =
      runWithCheckpoints(trace, params, checkpoint.path, 6 * kHour);
  EXPECT_EQ(plain.delivery.queries, resumed.delivery.queries);
  EXPECT_EQ(plain.delivery.filesDelivered, resumed.delivery.filesDelivered);
  EXPECT_EQ(plain.delivery.fileRatio, resumed.delivery.fileRatio);
  EXPECT_EQ(plain.delivery.metadataRatio, resumed.delivery.metadataRatio);
  EXPECT_EQ(plain.delivery.meanFileDelaySeconds,
            resumed.delivery.meanFileDelaySeconds);
  EXPECT_EQ(plain.totals.metadataReceptions, resumed.totals.metadataReceptions);
  EXPECT_EQ(plain.totals.pieceReceptions, resumed.totals.pieceReceptions);
}

TEST(RunWithCheckpointsTest, DeletesAnUnreadableCheckpointAndStartsCold) {
  TempPath checkpoint("hdtn_runwithckpt_corrupt.ckpt");
  {
    std::ofstream out(checkpoint.path);
    out << "this is not a checkpoint";
  }
  const trace::ContactTrace trace = smallTrace();
  const core::EngineParams params = smallParams();
  const core::EngineResult plain = core::runSimulation(trace, params);
  const core::EngineResult recovered =
      runWithCheckpoints(trace, params, checkpoint.path, 6 * kHour);
  EXPECT_EQ(plain.delivery.fileRatio, recovered.delivery.fileRatio);
  EXPECT_EQ(plain.delivery.queries, recovered.delivery.queries);
}

TEST(RunWithCheckpointsTest, EmptyPathRunsWithoutCheckpointing) {
  const trace::ContactTrace trace = smallTrace();
  const core::EngineParams params = smallParams();
  const core::EngineResult plain = core::runSimulation(trace, params);
  const core::EngineResult bare =
      runWithCheckpoints(trace, params, "", 6 * kHour);
  EXPECT_EQ(plain.delivery.fileRatio, bare.delivery.fileRatio);
  EXPECT_EQ(plain.delivery.queries, bare.delivery.queries);
}

}  // namespace
}  // namespace hdtn::bench
