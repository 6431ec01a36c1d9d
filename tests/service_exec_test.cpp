// The shared job-execution core: child spawning with memory or log-file
// capture, the cooperative stop protocol, and the retry classification the
// supervisor and the sweep service both use.
#include "src/service/exec.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

// A worker dies with the process that started it. The test process is a
// child subreaper, so the worker of a SIGKILLed helper is reparented here
// and can be reaped and examined.
TEST(ChildProcessTest, DiesWithTheProcessThatStartedIt) {
  ASSERT_EQ(prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t helper = fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    close(fds[0]);
    ChildProcess child;
    std::string error;
    if (!child.start({"/bin/sleep", "30"}, "/dev/null", &error)) _exit(1);
    const pid_t worker = child.pid();
    if (write(fds[1], &worker, sizeof(worker)) != sizeof(worker)) _exit(1);
    for (;;) pause();
  }
  close(fds[1]);
  pid_t worker = -1;
  const bool gotWorker =
      read(fds[0], &worker, sizeof(worker)) == sizeof(worker);
  close(fds[0]);
  // Kill the helper only once the worker runs sleep, past its prctl.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (gotWorker && std::chrono::steady_clock::now() < deadline &&
         readFile("/proc/" + std::to_string(worker) + "/cmdline")
                 .rfind("/bin/sleep", 0) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(helper, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(helper, &status, 0), helper);
  ASSERT_TRUE(gotWorker);

  pid_t reaped = 0;
  const auto reapBy = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((reaped = waitpid(worker, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < reapBy) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (reaped == 0) {  // still running: clean up before failing
    kill(worker, SIGKILL);
    waitpid(worker, nullptr, 0);
  }
  prctl(PR_SET_CHILD_SUBREAPER, 0);
  ASSERT_EQ(reaped, worker) << "the worker outlived its parent";
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
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

// hdtn_sim checks its own numeric flags before anything starts: a value a
// cast would wrap (a negative count) or a non-positive duration exits 2 with
// a message naming the flag. Each case runs with a deadline, so a build that
// accepted a flag and went on serving cannot hang the suite; every value is
// one that starts no thread and no worker even where it is accepted: a
// sharded run with a single group, and a daemon on an empty state directory.
TEST(SimFlagsTest, RejectsOutOfRangeNumbersBeforeStarting) {
  // exec keeps the simulator's own exit code; 2>&1 captures its message.
  const auto run = [](const std::vector<std::string>& flags) {
    std::vector<std::string> argv = {
        "/bin/sh", "-c", "exec \"$0\" \"$@\" 2>&1", HDTN_SIM_BINARY};
    argv.insert(argv.end(), flags.begin(), flags.end());
    return runChild(argv, 5.0);
  };
  const std::vector<std::string> trace = {
      "--trace-family=nus", "--trace-students=10", "--trace-courses=2",
      "--trace-days=1"};
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      sharded = {{"threads", {"--shards=1", "--threads=-1"}},
                 {"threads", {"--shards=1", "--threads=4294967296"}},
                 {"shards", {"--shards=-1"}},
                 {"shards", {"--shards=4294967297"}}};
  for (const auto& [flag, values] : sharded) {
    std::vector<std::string> flags = trace;
    flags.insert(flags.end(), values.begin(), values.end());
    const ChildOutcome outcome = run(flags);
    EXPECT_EQ(outcome.cause, ExitCause::kCleanExit) << values.back();
    EXPECT_EQ(outcome.exitCode, 2) << values.back();
    EXPECT_NE(outcome.output.find("--" + flag + " must be"), std::string::npos)
        << values.back() << ": " << outcome.output;
  }

  const std::vector<std::string> serve = {
      "--workers=-1",       "--workers=0",
      "--max-queue=-1",     "--wal-max-bytes=-1",
      "--job-timeout=0",    "--job-timeout=-1",
      "--grace=0",          "--grace=-5",
      "--max-attempts=0",   "--max-attempts=-1",
      "--job-checkpoint-every=0", "--job-checkpoint-every=-21600"};
  for (const std::string& value : serve) {
    const fs::path stateDir = tempPath("hdtn_sim_flags_state");
    fs::remove_all(stateDir);
    fs::create_directories(stateDir);
    const ChildOutcome outcome =
        run({"--serve", "--state-dir=" + stateDir.string(), value});
    EXPECT_EQ(outcome.cause, ExitCause::kCleanExit) << value;
    EXPECT_EQ(outcome.exitCode, 2) << value;
    const std::string flag = value.substr(0, value.find('='));
    EXPECT_NE(outcome.output.find(flag + " must be"), std::string::npos)
        << value << ": " << outcome.output;
    EXPECT_TRUE(fs::is_empty(stateDir)) << value;
    fs::remove_all(stateDir);
  }
}

}  // namespace
}  // namespace hdtn::service
