// The durable work queue: submits survive reopen, running jobs requeue
// with resume, torn WAL tails and malformed lines are tolerated with
// line-numbered warnings and leave the WAL ending at a line boundary, a
// short WAL write refuses its submit, backpressure sheds past the depth
// bound, and compaction keeps the WAL bounded while pruning old terminal
// jobs.
#include "src/service/queue.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace hdtn::service {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() : path((fs::temp_directory_path() /
                    ("hdtn_queue_test_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(counter++)))
                       .string()) {
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int counter;
  std::string path;
};
int TempDir::counter = 0;

QueueLimits smallLimits() {
  QueueLimits limits;
  limits.maxDepth = 8;
  limits.maxWalBytes = 1 << 20;
  limits.keepTerminal = 4;
  return limits;
}

TEST(WorkQueueTest, SubmitsSurviveReopen) {
  TempDir dir;
  {
    WorkQueue queue(dir.path, smallLimits());
    std::string error;
    std::vector<std::string> warnings;
    ASSERT_TRUE(queue.open(&error, &warnings)) << error;
    EXPECT_TRUE(warnings.empty());
    EXPECT_EQ(queue.submit("alpha", 1, "seed = 1\n", &error), 1u);
    EXPECT_EQ(queue.submit("beta", 0, "seed = 2\n", &error), 2u);
    queue.markRunning(1);
    queue.markDone(1, "result-row");
  }
  WorkQueue reopened(dir.path, smallLimits());
  std::string error;
  std::vector<std::string> warnings;
  ASSERT_TRUE(reopened.open(&error, &warnings)) << error;
  EXPECT_TRUE(warnings.empty());
  ASSERT_NE(reopened.find(1), nullptr);
  EXPECT_EQ(reopened.find(1)->state, JobState::kDone);
  EXPECT_EQ(reopened.find(1)->result, "result-row");
  ASSERT_NE(reopened.find(2), nullptr);
  EXPECT_EQ(reopened.find(2)->state, JobState::kQueued);
  EXPECT_EQ(reopened.find(2)->spec.scenarioText, "seed = 2\n");
  // Ids keep counting from where the previous daemon stopped.
  EXPECT_EQ(reopened.submit("gamma", 0, "seed = 3\n", &error), 3u);
}

TEST(WorkQueueTest, RunningJobsRequeueWithResumeOnReopen) {
  TempDir dir;
  {
    WorkQueue queue(dir.path, smallLimits());
    std::string error;
    ASSERT_TRUE(queue.open(&error, nullptr)) << error;
    ASSERT_EQ(queue.submit("crashy", 0, "seed = 1\n", &error), 1u);
    queue.markRunning(1);
    // Daemon dies here (no clean state transition).
  }
  WorkQueue reopened(dir.path, smallLimits());
  std::string error;
  ASSERT_TRUE(reopened.open(&error, nullptr)) << error;
  const JobRecord* job = reopened.find(1);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->state, JobState::kQueued);
  EXPECT_TRUE(job->resume);
  // The interrupted attempt stays counted.
  EXPECT_EQ(job->attempts, 1);
}

TEST(WorkQueueTest, DropsATornFinalLineWithAWarning) {
  TempDir dir;
  {
    WorkQueue queue(dir.path, smallLimits());
    std::string error;
    ASSERT_TRUE(queue.open(&error, nullptr)) << error;
    ASSERT_EQ(queue.submit("kept", 0, "seed = 1\n", &error), 1u);
  }
  {
    // Crash mid-append: the final line never got its newline.
    std::ofstream wal(dir.path + "/queue.wal", std::ios::app);
    wal << "{\"op\":\"submit\",\"id\":2,\"name\":\"torn";
  }
  WorkQueue reopened(dir.path, smallLimits());
  std::string error;
  std::vector<std::string> warnings;
  ASSERT_TRUE(reopened.open(&error, &warnings)) << error;
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("truncated final line"), std::string::npos);
  EXPECT_NE(reopened.find(1), nullptr);
  EXPECT_EQ(reopened.find(2), nullptr);
}

// Reopening must leave the WAL ending at a line boundary. Otherwise the
// next acknowledged submit is glued onto the torn bytes, and the replay
// after that rejects it as malformed.
TEST(WorkQueueTest, AppendsAfterATornTailStartANewLine) {
  TempDir dir;
  const std::string walPath = dir.path + "/queue.wal";
  std::string error;
  {
    WorkQueue queue(dir.path, smallLimits());
    ASSERT_TRUE(queue.open(&error, nullptr)) << error;
    ASSERT_EQ(queue.submit("a", 0, "seed = 1\n", &error), 1u);
  }
  std::ofstream(walPath, std::ios::app) << "{\"op\":\"submit\",\"id\":2,\"na";
  {
    WorkQueue queue(dir.path, smallLimits());
    std::vector<std::string> warnings;
    ASSERT_TRUE(queue.open(&error, &warnings)) << error;
    EXPECT_EQ(warnings.size(), 1u);
    ASSERT_EQ(queue.submit("b", 0, "seed = 2\n", &error), 2u);
  }
  // A final line that parses in full but lacks its newline is applied, and
  // terminated before anything follows it.
  std::ofstream(walPath, std::ios::app)
      << "{\"op\":\"submit\",\"id\":3,\"name\":\"c\",\"priority\":0,"
         "\"scenario\":\"seed = 3\\n\"}";
  {
    WorkQueue queue(dir.path, smallLimits());
    std::vector<std::string> warnings;
    ASSERT_TRUE(queue.open(&error, &warnings)) << error;
    EXPECT_TRUE(warnings.empty());
    ASSERT_EQ(queue.submit("d", 0, "seed = 4\n", &error), 4u);
  }
  WorkQueue reopened(dir.path, smallLimits());
  std::vector<std::string> warnings;
  ASSERT_TRUE(reopened.open(&error, &warnings)) << error;
  EXPECT_TRUE(warnings.empty()) << warnings.front();
  ASSERT_EQ(reopened.jobs().size(), 4u);
  EXPECT_EQ(reopened.find(2)->spec.name, "b");
  EXPECT_EQ(reopened.find(3)->spec.name, "c");
  EXPECT_EQ(reopened.find(4)->spec.name, "d");
}

TEST(WorkQueueTest, ReportsMalformedInteriorLinesWithLineNumbers) {
  TempDir dir;
  {
    WorkQueue queue(dir.path, smallLimits());
    std::string error;
    ASSERT_TRUE(queue.open(&error, nullptr)) << error;
    ASSERT_EQ(queue.submit("first", 0, "seed = 1\n", &error), 1u);
  }
  {
    // Corruption in the middle (newline-terminated, so not a torn tail),
    // followed by a good line that must still replay.
    std::ofstream wal(dir.path + "/queue.wal", std::ios::app);
    wal << "garbage that is not json\n";
    wal << "{\"op\":\"submit\",\"id\":2,\"name\":\"second\","
           "\"priority\":0,\"scenario\":\"seed = 2\\n\"}\n";
  }
  WorkQueue reopened(dir.path, smallLimits());
  std::string error;
  std::vector<std::string> warnings;
  ASSERT_TRUE(reopened.open(&error, &warnings)) << error;
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("line 2"), std::string::npos);
  EXPECT_NE(warnings[0].find("malformed entry"), std::string::npos);
  EXPECT_NE(reopened.find(1), nullptr);
  ASSERT_NE(reopened.find(2), nullptr);
  EXPECT_EQ(reopened.find(2)->spec.name, "second");
}

TEST(WorkQueueTest, BackpressureShedsSubmissionsPastTheDepthBound) {
  TempDir dir;
  QueueLimits limits = smallLimits();
  limits.maxDepth = 2;
  WorkQueue queue(dir.path, limits);
  std::string error;
  ASSERT_TRUE(queue.open(&error, nullptr)) << error;
  EXPECT_NE(queue.submit("a", 0, "seed = 1\n", &error), 0u);
  EXPECT_NE(queue.submit("b", 0, "seed = 2\n", &error), 0u);
  EXPECT_EQ(queue.submit("c", 0, "seed = 3\n", &error), 0u);
  EXPECT_NE(error.find("queue full"), std::string::npos);
  // Terminal jobs free their slot.
  queue.markRunning(1);
  queue.markDone(1, "r");
  EXPECT_NE(queue.submit("c", 0, "seed = 3\n", &error), 0u);
}

TEST(WorkQueueTest, NextRunnablePrefersPriorityThenFifoAndHonorsBackoff) {
  TempDir dir;
  WorkQueue queue(dir.path, smallLimits());
  std::string error;
  ASSERT_TRUE(queue.open(&error, nullptr)) << error;
  ASSERT_EQ(queue.submit("low-1", 0, "seed = 1\n", &error), 1u);
  ASSERT_EQ(queue.submit("high", 5, "seed = 2\n", &error), 2u);
  ASSERT_EQ(queue.submit("low-2", 0, "seed = 3\n", &error), 3u);
  JobRecord* next = queue.nextRunnable(0.0);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->spec.id, 2u);
  queue.markRunning(2);
  // Same priority → FIFO by id.
  next = queue.nextRunnable(0.0);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->spec.id, 1u);
  // A retrying job is not eligible until its backoff elapses.
  queue.markRunning(1);
  queue.markRetrying(1, "exit code 1", 100.0);
  next = queue.nextRunnable(50.0);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->spec.id, 3u);
  queue.markRunning(3);
  EXPECT_EQ(queue.nextRunnable(50.0), nullptr);
  next = queue.nextRunnable(150.0);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->spec.id, 1u);
  EXPECT_TRUE(next->resume);
}

TEST(WorkQueueTest, CompactionBoundsTheWalAndPrunesOldTerminalJobs) {
  TempDir dir;
  QueueLimits limits;
  limits.maxDepth = 64;
  limits.maxWalBytes = 2048;  // tiny, to force compactions
  limits.keepTerminal = 3;
  WorkQueue queue(dir.path, limits);
  std::string error;
  ASSERT_TRUE(queue.open(&error, nullptr)) << error;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t id =
        queue.submit("j" + std::to_string(i), 0, "seed = 1\n", &error);
    ASSERT_NE(id, 0u);
    queue.markRunning(id);
    queue.markDone(id, "r" + std::to_string(i));
  }
  EXPECT_GT(queue.compactions(), 0u);
  EXPECT_LE(queue.walBytes(), limits.maxWalBytes);
  EXPECT_GT(queue.prunedJobs(), 0u);
  // Pruning happens at compaction time, so jobs submitted since the last
  // compaction linger — but the total stays well below everything-forever.
  EXPECT_LT(queue.jobs().size(), 20u);
  EXPECT_GT(queue.bytesWritten(), 0u);

  // The compacted state still replays: the newest terminal jobs survive.
  WorkQueue reopened(dir.path, limits);
  std::vector<std::string> warnings;
  ASSERT_TRUE(reopened.open(&error, &warnings)) << error;
  EXPECT_TRUE(warnings.empty());
  ASSERT_NE(reopened.find(20), nullptr);
  EXPECT_EQ(reopened.find(20)->state, JobState::kDone);
  EXPECT_EQ(reopened.find(20)->result, "r19");
  EXPECT_EQ(reopened.find(1), nullptr);
}

// A snapshot write that fails part way (a file-size limit stands in for a
// full disk) must keep the old snapshot and the WAL: no acknowledged job is
// lost, and no compaction is counted.
TEST(WorkQueueTest, FailedSnapshotWriteKeepsEveryAcknowledgedJob) {
  TempDir dir;
  QueueLimits limits;
  limits.maxDepth = 64;
  std::string error;
  {
    WorkQueue queue(dir.path, limits);
    ASSERT_TRUE(queue.open(&error, nullptr)) << error;
    for (int i = 0; i < 50; ++i) {
      ASSERT_NE(queue.submit(std::to_string(i), 0, "seed = 1\n", &error), 0u);
    }
    struct sigaction ignore {};
    struct sigaction previous {};
    ignore.sa_handler = SIG_IGN;
    ASSERT_EQ(sigaction(SIGXFSZ, &ignore, &previous), 0);
    rlimit saved{};
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit small = saved;
    small.rlim_cur = 1500;
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &small), 0);
    queue.compact();
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
    ASSERT_EQ(sigaction(SIGXFSZ, &previous, nullptr), 0);
    EXPECT_EQ(queue.compactions(), 0u);
  }
  WorkQueue reopened(dir.path, limits);
  std::vector<std::string> warnings;
  ASSERT_TRUE(reopened.open(&error, &warnings)) << error;
  EXPECT_EQ(reopened.jobs().size(), 50u);
  for (std::uint64_t id = 1; id <= 50; ++id) {
    EXPECT_NE(reopened.find(id), nullptr) << "job " << id << " lost";
  }
}

// A submit whose WAL line does not reach the disk in full (a file-size
// limit stands in for a full disk) is refused, and the partial line is cut
// off so the next submit replays cleanly.
TEST(WorkQueueTest, ShortWalWriteRefusesTheSubmit) {
  TempDir dir;
  std::string error;
  {
    WorkQueue queue(dir.path, smallLimits());
    ASSERT_TRUE(queue.open(&error, nullptr)) << error;
    ASSERT_EQ(queue.submit("a", 0, "seed = 1\n", &error), 1u);
    struct sigaction ignore {};
    struct sigaction previous {};
    ignore.sa_handler = SIG_IGN;
    ASSERT_EQ(sigaction(SIGXFSZ, &ignore, &previous), 0);
    rlimit saved{};
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit small = saved;
    small.rlim_cur = queue.walBytes() + 20;
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &small), 0);
    const std::uint64_t refused = queue.submit("b", 0, "seed = 2\n", &error);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
    ASSERT_EQ(sigaction(SIGXFSZ, &previous, nullptr), 0);
    EXPECT_EQ(refused, 0u);
    EXPECT_NE(error.find("queue.wal"), std::string::npos) << error;
    EXPECT_EQ(queue.jobs().size(), 1u);
    EXPECT_EQ(queue.submit("c", 0, "seed = 3\n", &error), 2u);
  }
  WorkQueue reopened(dir.path, smallLimits());
  std::vector<std::string> warnings;
  ASSERT_TRUE(reopened.open(&error, &warnings)) << error;
  EXPECT_TRUE(warnings.empty()) << warnings.front();
  ASSERT_EQ(reopened.jobs().size(), 2u);
  EXPECT_EQ(reopened.find(2)->spec.name, "c");
}

}  // namespace
}  // namespace hdtn::service
