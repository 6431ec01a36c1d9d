// The resident sweep service end to end, against real hdtn_sim workers:
// submit/status/cancel over the socket, invalid-scenario rejection,
// backpressure, fail-fast on validation errors, SIGKILL-crash retry with
// byte-identical outputs, priority preemption, a worker's exit waking the
// daemon, and a daemon restart mid-queue that loses nothing
// (docs/SERVICE.md).
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "service_test_util.hpp"
#include "src/service/queue.hpp"

namespace hdtn::service {
namespace {

namespace fs = std::filesystem;
using namespace testutil;

TEST(ServiceDaemonTest, RunsSubmittedJobsToDoneAndReportsResults) {
  DaemonHarness harness(testConfig("basic"));
  ASSERT_EQ(harness.start(), "");
  std::string error;
  const std::uint64_t first =
      submitJob(harness.socketPath(), "quick-1", 0, quickScenario(1), &error);
  ASSERT_NE(first, 0u) << error;
  const std::uint64_t second =
      submitJob(harness.socketPath(), "quick-2", 0, quickScenario(2), &error);
  ASSERT_NE(second, 0u) << error;
  ASSERT_TRUE(harness.waitForDrain(60.0));

  const FlatObject job = statusJob(harness.socketPath(), first);
  EXPECT_EQ(getString(job, "state"), "done");
  EXPECT_EQ(getInt(job, "attempts"), 1);
  // The worker's CSV result row is captured into the job record.
  EXPECT_NE(getString(job, "result").find("mbt-qm"), std::string::npos);
  EXPECT_EQ(getString(statusJob(harness.socketPath(), second), "state"),
            "done");
  // The service wires each job's obs stream into its job directory.
  const std::string events =
      harness.config().stateDir + "/jobs/" + std::to_string(first) +
      "/events.jsonl";
  EXPECT_TRUE(fs::exists(events));
  EXPECT_GT(fs::file_size(events), 0u);
  FlatObject top;
  (void)statusJobs(harness.socketPath(), &top);
  EXPECT_EQ(getInt(top, "done"), 2);
  EXPECT_GT(getInt(top, "journal_bytes_written"), 0);
  EXPECT_GT(getInt(top, "output_bytes_written"), 0);
}

TEST(ServiceDaemonTest, RejectsAnInvalidScenarioAtSubmitTime) {
  DaemonHarness harness(testConfig("reject"));
  ASSERT_EQ(harness.start(), "");
  std::string error;
  EXPECT_EQ(submitJob(harness.socketPath(), "bad", 0,
                      "no-such-key = 1\n", &error),
            0u);
  EXPECT_NE(error.find("invalid scenario"), std::string::npos);
  // Nothing was accepted, so nothing is pending.
  FlatObject top;
  (void)statusJobs(harness.socketPath(), &top);
  EXPECT_EQ(getInt(top, "pending", -1), 0);
}

TEST(ServiceDaemonTest, ShedsSubmissionsPastTheQueueDepth) {
  DaemonConfig config = testConfig("backpressure", /*workers=*/1);
  config.queueLimits.maxDepth = 2;
  DaemonHarness harness(config);
  ASSERT_EQ(harness.start(), "");
  std::string error;
  ASSERT_NE(submitJob(harness.socketPath(), "s1", 0, slowScenario(1)), 0u);
  ASSERT_NE(submitJob(harness.socketPath(), "s2", 0, quickScenario(2)), 0u);
  EXPECT_EQ(
      submitJob(harness.socketPath(), "s3", 0, quickScenario(3), &error),
      0u);
  EXPECT_NE(error.find("queue full"), std::string::npos);
}

TEST(ServiceDaemonTest, CleanValidationExitFailsFastWithoutRetries) {
  // The scenario parses (so submit accepts it) but names an unreadable
  // trace file, which the worker reports as a validation error (exit 2).
  DaemonHarness harness(testConfig("failfast"));
  ASSERT_EQ(harness.start(), "");
  const std::string scenario =
      "trace = /no/such/trace/file\nfiles-per-day = 10\n";
  std::string error;
  const std::uint64_t id =
      submitJob(harness.socketPath(), "doomed", 0, scenario, &error);
  ASSERT_NE(id, 0u) << error;
  ASSERT_TRUE(harness.waitForDrain(30.0));
  const FlatObject job = statusJob(harness.socketPath(), id);
  EXPECT_EQ(getString(job, "state"), "failed");
  // Fail fast: exactly one attempt, and the error says why.
  EXPECT_EQ(getInt(job, "attempts"), 1);
  EXPECT_NE(getString(job, "error").find("not retried"), std::string::npos);
}

TEST(ServiceDaemonTest, CancelsAWaitingJob) {
  DaemonConfig config = testConfig("cancel", /*workers=*/1);
  DaemonHarness harness(config);
  ASSERT_EQ(harness.start(), "");
  ASSERT_NE(submitJob(harness.socketPath(), "busy", 0, slowScenario(1)), 0u);
  const std::uint64_t waiting =
      submitJob(harness.socketPath(), "waiting", 0, quickScenario(2));
  ASSERT_NE(waiting, 0u);
  std::string reply;
  ASSERT_TRUE(roundTrip(harness.socketPath(),
                        "{\"cmd\":\"cancel\",\"id\":" +
                            std::to_string(waiting) + "}",
                        &reply));
  FlatObject fields;
  ASSERT_TRUE(parseFlatObject(reply, &fields, nullptr));
  EXPECT_TRUE(getBool(fields, "ok"));
  ASSERT_TRUE(harness.waitForDrain(60.0));
  EXPECT_EQ(getString(statusJob(harness.socketPath(), waiting), "state"),
            "cancelled");
}

TEST(ServiceDaemonTest, SigkilledWorkerRetriesAndProducesIdenticalOutputs) {
  DaemonHarness harness(testConfig("crash"));
  ASSERT_EQ(harness.start(), "");
  // Two identical jobs: one runs undisturbed, the other is SIGKILLed
  // mid-run. Checkpoint resume makes their outputs byte-identical.
  const std::uint64_t reference =
      submitJob(harness.socketPath(), "reference", 0, slowScenario(9));
  ASSERT_NE(reference, 0u);
  const std::uint64_t victim =
      submitJob(harness.socketPath(), "victim", 0, slowScenario(9));
  ASSERT_NE(victim, 0u);

  // Wait until the victim is visibly running, then SIGKILL its worker.
  pid_t pid = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const FlatObject job = statusJob(harness.socketPath(), victim);
    if (getString(job, "state") == "running" && getInt(job, "pid") > 0) {
      pid = static_cast<pid_t>(getInt(job, "pid"));
      break;
    }
    ASSERT_NE(getString(job, "state"), "done")
        << "victim finished before it could be killed; slowScenario is "
           "too fast for this machine";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(pid, 0);
  ASSERT_EQ(kill(pid, SIGKILL), 0);

  ASSERT_TRUE(harness.waitForDrain(120.0));
  const FlatObject victimJob = statusJob(harness.socketPath(), victim);
  EXPECT_EQ(getString(victimJob, "state"), "done");
  EXPECT_GE(getInt(victimJob, "attempts"), 2);
  const FlatObject referenceJob = statusJob(harness.socketPath(), reference);
  EXPECT_EQ(getString(referenceJob, "state"), "done");
  EXPECT_EQ(getInt(referenceJob, "attempts"), 1);

  const std::string stateDir = harness.config().stateDir;
  const std::string referenceEvents =
      readFile(stateDir + "/jobs/" + std::to_string(reference) +
               "/events.jsonl");
  const std::string victimEvents = readFile(
      stateDir + "/jobs/" + std::to_string(victim) + "/events.jsonl");
  ASSERT_FALSE(referenceEvents.empty());
  EXPECT_EQ(referenceEvents, victimEvents);
  EXPECT_EQ(getString(referenceJob, "result"),
            getString(victimJob, "result"));
}

TEST(ServiceDaemonTest, HigherPriorityPreemptsTheRunningJob) {
  DaemonConfig config = testConfig("preempt", /*workers=*/1);
  DaemonHarness harness(config);
  ASSERT_EQ(harness.start(), "");
  const std::uint64_t low =
      submitJob(harness.socketPath(), "low", 0, slowScenario(3));
  ASSERT_NE(low, 0u);
  // Let the low-priority job get a worker first.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline &&
         getString(statusJob(harness.socketPath(), low), "state") !=
             "running") {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(getString(statusJob(harness.socketPath(), low), "state"),
            "running");
  const std::uint64_t high =
      submitJob(harness.socketPath(), "high", 5, quickScenario(4));
  ASSERT_NE(high, 0u);
  ASSERT_TRUE(harness.waitForDrain(120.0));
  const FlatObject lowJob = statusJob(harness.socketPath(), low);
  EXPECT_EQ(getString(lowJob, "state"), "done");
  EXPECT_GE(getInt(lowJob, "preemptions"), 1);
  EXPECT_EQ(getString(statusJob(harness.socketPath(), high), "state"),
            "done");
}

// A worker's exit wakes the daemon: with no client traffic, one step hands
// the slot to the next queued job as soon as the running worker exits,
// not when the step's wait runs out.
TEST(ServiceDaemonTest, WorkerExitWakesTheDaemon) {
  DaemonConfig config = testConfig("wake", /*workers=*/1);
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  {
    // Queue both jobs on a daemon without worker slots, so neither starts.
    DaemonConfig queueOnly = config;
    queueOnly.workers = 0;
    DaemonHarness harness(queueOnly);
    ASSERT_EQ(harness.start(), "");
    first = submitJob(harness.socketPath(), "first", 0, quickScenario(1));
    second = submitJob(harness.socketPath(), "second", 0, quickScenario(2));
    ASSERT_NE(first, 0u);
    ASSERT_NE(second, 0u);
  }
  Daemon daemon(config);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  ASSERT_TRUE(daemon.step(0.0));
  ASSERT_EQ(daemon.queue()->find(first)->state, JobState::kRunning);

  // Nothing but the worker's exit can end this wait before 5 s.
  ASSERT_TRUE(daemon.step(5.0));
  const auto returned = fs::file_time_type::clock::now();
  EXPECT_EQ(daemon.queue()->find(first)->state, JobState::kDone);
  EXPECT_EQ(daemon.queue()->find(second)->state, JobState::kRunning);
  // The worker's last output came less than a second before the step
  // returned.
  const auto lastOutput =
      fs::last_write_time(daemon.jobDir(first) + "/stdout.log");
  EXPECT_LT(returned - lastOutput, std::chrono::seconds(1));

  daemon.requestShutdown();
  while (daemon.step(0.05)) {
  }
}

TEST(ServiceDaemonTest, RestartMidQueueLosesNothing) {
  DaemonConfig config = testConfig("restart", /*workers=*/1);
  const std::string stateDir = config.stateDir;
  std::uint64_t ids[3] = {0, 0, 0};
  {
    DaemonHarness harness(config);
    ASSERT_EQ(harness.start(), "");
    ids[0] = submitJob(harness.socketPath(), "r1", 0, slowScenario(5));
    ids[1] = submitJob(harness.socketPath(), "r2", 0, quickScenario(6));
    ids[2] = submitJob(harness.socketPath(), "r3", 0, quickScenario(7));
    ASSERT_NE(ids[0], 0u);
    ASSERT_NE(ids[1], 0u);
    ASSERT_NE(ids[2], 0u);
    // Shut down while the first job is mid-run: it checkpoints and the
    // other two never started.
    harness.stop();
  }
  // The durable queue brings all three back; the interrupted one resumes.
  DaemonHarness second(config);
  ASSERT_EQ(second.start(), "");
  ASSERT_TRUE(second.waitForDrain(120.0));
  for (const std::uint64_t id : ids) {
    const FlatObject job = statusJob(second.socketPath(), id);
    EXPECT_EQ(getString(job, "state"), "done")
        << "job " << id << ": " << getString(job, "error");
  }
}

}  // namespace
}  // namespace hdtn::service
