// The shared job-execution core: child spawning with memory or log-file
// capture, the cooperative stop protocol, and the retry classification the
// supervisor and the sweep service both use.
#include "src/service/exec.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace hdtn::service {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(RunChildTest, CapturesExitCodeAndOutput) {
  const ChildOutcome run =
      runChild({"/bin/sh", "-c", "echo captured; exit 4"}, 10.0);
  EXPECT_EQ(run.cause, ExitCause::kCleanExit);
  EXPECT_EQ(run.exitCode, 4);
  EXPECT_EQ(run.output, "captured\n");
}

TEST(RunChildTest, KillsPastTheDeadline) {
  const ChildOutcome run = runChild({"/bin/sh", "-c", "sleep 30"}, 0.3);
  EXPECT_EQ(run.cause, ExitCause::kTimedOut);
}

TEST(RunChildTest, ReportsTheFatalSignal) {
  const ChildOutcome run = runChild({"/bin/sh", "-c", "kill -9 $$"}, 10.0);
  EXPECT_EQ(run.cause, ExitCause::kSignaled);
  EXPECT_EQ(run.signal, 9);
}

TEST(RunChildTest, ExecFailureIsExit127) {
  const ChildOutcome run = runChild({"/no/such/binary/anywhere"}, 10.0);
  EXPECT_EQ(run.cause, ExitCause::kCleanExit);
  EXPECT_EQ(run.exitCode, 127);
}

TEST(RunChildTest, DrainsOutputLargerThanThePipeBuffer) {
  // 1 MiB of output would deadlock a parent that reads only after waitpid.
  const ChildOutcome run = runChild(
      {"/bin/sh", "-c", "i=0; while [ $i -lt 16384 ]; do"
                        " echo 0123456789012345678901234567890123456789012345678901234567890123;"
                        " i=$((i+1)); done"},
      30.0);
  EXPECT_EQ(run.cause, ExitCause::kCleanExit);
  EXPECT_EQ(run.exitCode, 0);
  EXPECT_EQ(run.output.size(), 16384u * 65u);
}

TEST(ChildProcessTest, LogFileModeRedirectsStdoutAndStderr) {
  const std::string log = tempPath("hdtn_exec_log_test.log");
  ChildProcess child;
  std::string error;
  ASSERT_TRUE(child.start({"/bin/sh", "-c", "echo out; echo err 1>&2"}, log,
                          &error))
      << error;
  const ChildOutcome run = child.wait();
  EXPECT_EQ(run.cause, ExitCause::kCleanExit);
  EXPECT_EQ(run.exitCode, 0);
  EXPECT_TRUE(run.output.empty());
  const std::string contents = readFile(log);
  EXPECT_NE(contents.find("out"), std::string::npos);
  EXPECT_NE(contents.find("err"), std::string::npos);
  fs::remove(log);
}

TEST(ChildProcessTest, RequestStopDeliversSigterm) {
  // A trap-aware child exits kPreemptedExitCode on SIGTERM — exactly the
  // worker preemption protocol.
  ChildProcess child;
  std::string error;
  ASSERT_TRUE(child.start({"/bin/sh", "-c",
                           "trap 'exit 75' TERM; "
                           "i=0; while [ $i -lt 400 ]; do sleep 0.05; "
                           "i=$((i+1)); done"},
                          "", &error))
      << error;
  // Give the shell a moment to install the trap before signaling.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(child.poll());
  child.requestStop();
  const ChildOutcome run = child.wait();
  ASSERT_EQ(run.cause, ExitCause::kCleanExit);
  EXPECT_EQ(run.exitCode, kPreemptedExitCode);
  EXPECT_EQ(classifyOutcome(run, RetryPolicy{}), RetryDecision::kPreempted);
}

TEST(ClassifyOutcomeTest, MapsEveryCauseToADecision) {
  const RetryPolicy policy;
  ChildOutcome outcome;
  outcome.cause = ExitCause::kCleanExit;
  outcome.exitCode = 0;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kSuccess);
  outcome.exitCode = kPreemptedExitCode;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kPreempted);
  // Deterministic validation failures fail fast; other clean nonzero exits
  // are transient and retry.
  outcome.exitCode = 2;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kFailFast);
  outcome.exitCode = 127;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kFailFast);
  outcome.exitCode = 1;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kRetry);
  outcome.exitCode = 9;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kRetry);
  outcome.cause = ExitCause::kSignaled;
  outcome.signal = 11;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kRetry);
  outcome.cause = ExitCause::kTimedOut;
  EXPECT_EQ(classifyOutcome(outcome, policy), RetryDecision::kRetry);
}

TEST(BackoffTest, DoublesPerAttempt) {
  RetryPolicy policy;
  policy.backoffBaseSeconds = 0.5;
  EXPECT_DOUBLE_EQ(backoffSeconds(policy, 1), 0.0);
  EXPECT_DOUBLE_EQ(backoffSeconds(policy, 2), 0.5);
  EXPECT_DOUBLE_EQ(backoffSeconds(policy, 3), 1.0);
  EXPECT_DOUBLE_EQ(backoffSeconds(policy, 4), 2.0);
}

TEST(DescribeOutcomeTest, NamesTheFailure) {
  ChildOutcome outcome;
  outcome.cause = ExitCause::kCleanExit;
  outcome.exitCode = 3;
  EXPECT_EQ(describeOutcome(outcome, 60.0), "exit code 3");
  outcome.exitCode = kPreemptedExitCode;
  EXPECT_EQ(describeOutcome(outcome, 60.0), "preempted (checkpoint saved)");
  outcome.cause = ExitCause::kSignaled;
  outcome.signal = 9;
  EXPECT_EQ(describeOutcome(outcome, 60.0), "killed by signal 9");
  outcome.cause = ExitCause::kTimedOut;
  EXPECT_NE(describeOutcome(outcome, 60.0).find("timed out"),
            std::string::npos);
}

}  // namespace
}  // namespace hdtn::service
