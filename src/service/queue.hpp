// Durable work queue for the resident sweep service and for supervised
// bench sweeps (docs/SERVICE.md, docs/CHECKPOINT.md).
//
// Accepted jobs are persisted before they are acknowledged: every submit
// and every state transition appends one flat-JSON line to a write-ahead
// log that is fsync'd line by line, so a daemon crash (or SIGKILL) can
// never lose or duplicate an accepted job. Restart replays the snapshot
// and then the WAL; jobs that were running when the process died requeue
// with resume=true and pick their checkpoints back up.
//
// Replay is hardened: a torn final line (crash mid-append) is dropped with a
// warning and cut off, and genuinely malformed entries are reported with
// line numbers — neither poisons the rest of the journal. When the WAL
// outgrows its byte bound the queue compacts: the
// live state is written to a snapshot (atomic tmp + rename) and the WAL is
// truncated, so a week-long soak cannot fill the disk.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hdtn::service {

enum class JobState {
  kQueued,     ///< waiting for a worker slot
  kRunning,    ///< a worker subprocess is executing it
  kPreempted,  ///< checkpointed and stopped for a higher-priority job
  kRetrying,   ///< failed attempt; waiting out the backoff
  kDone,       ///< completed successfully (terminal)
  kFailed,     ///< attempt budget exhausted or validation failure (terminal)
  kCancelled,  ///< cancelled before completion (terminal)
};

[[nodiscard]] const char* jobStateName(JobState state);

/// What the submitter provided.
struct JobSpec {
  std::uint64_t id = 0;
  std::string name;
  /// Higher runs first; a strictly higher priority may preempt a running
  /// lower-priority job when no worker slot is free.
  int priority = 0;
  /// The scenario file contents (key = value lines; docs/FAULTS.md).
  std::string scenarioText;
};

/// A job's full lifecycle record.
struct JobRecord {
  JobSpec spec;
  JobState state = JobState::kQueued;
  /// Started attempts (preemptions do not count against the budget).
  int attempts = 0;
  int preemptions = 0;
  /// True when the next attempt should resume from the job checkpoint.
  bool resume = false;
  /// Last failure description (retries and terminal failures).
  std::string error;
  /// The worker's one-line CSV result, captured at completion.
  std::string result;
  /// Monotonic eligibility time for retry backoff; not persisted — a
  /// restart retries immediately, which is what an operator wants anyway.
  double notBeforeSeconds = 0.0;

  [[nodiscard]] bool terminal() const {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled;
  }
  [[nodiscard]] bool waiting() const {
    return state == JobState::kQueued || state == JobState::kPreempted ||
           state == JobState::kRetrying;
  }
};

struct QueueLimits {
  /// Maximum jobs in flight (waiting + running). Submissions past this are
  /// shed with an error instead of accepted unboundedly.
  std::size_t maxDepth = 256;
  /// WAL size that triggers snapshot compaction.
  std::uint64_t maxWalBytes = 1 << 20;
  /// Terminal jobs kept through a compaction (newest first); older ones
  /// are pruned from the snapshot (their output directories remain).
  std::size_t keepTerminal = 128;
};

class WorkQueue {
 public:
  /// `dir` holds queue.wal and queue.snapshot; created if missing.
  WorkQueue(std::string dir, QueueLimits limits);
  ~WorkQueue();
  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// Loads snapshot + WAL and opens the WAL for appending. Replay issues
  /// (torn tail, malformed lines) are collected into *warnings; only an
  /// unopenable directory or WAL is a hard failure. The WAL is left ending
  /// at a line boundary: a dropped torn tail is cut off and a final line
  /// that replayed without its newline gets one, so the next append starts
  /// a line of its own.
  [[nodiscard]] bool open(std::string* error,
                          std::vector<std::string>* warnings);

  /// Durably accepts a job: the WAL line is written and fsync'd before the
  /// id is returned. Returns 0 with *error set when the queue is full or the
  /// WAL write fails.
  [[nodiscard]] std::uint64_t submit(const std::string& name, int priority,
                                     const std::string& scenarioText,
                                     std::string* error);

  [[nodiscard]] JobRecord* find(std::uint64_t id);

  /// The highest-priority eligible waiting job (FIFO by id within a
  /// priority); nullptr when none is eligible at `nowSeconds`.
  [[nodiscard]] JobRecord* nextRunnable(double nowSeconds);

  // State transitions; each appends one durable WAL line.
  void markRunning(std::uint64_t id);
  void markPreempted(std::uint64_t id);
  void markRetrying(std::uint64_t id, const std::string& why,
                    double notBeforeSeconds);
  void markDone(std::uint64_t id, const std::string& result);
  void markFailed(std::uint64_t id, const std::string& why);
  void markCancelled(std::uint64_t id);

  [[nodiscard]] const std::map<std::uint64_t, JobRecord>& jobs() const {
    return jobs_;
  }
  [[nodiscard]] std::size_t countInState(JobState state) const;
  /// Waiting + running — the depth the backpressure bound applies to.
  [[nodiscard]] std::size_t activeDepth() const;

  // Durability counters for the service status output.
  [[nodiscard]] std::uint64_t walBytes() const { return walBytes_; }
  [[nodiscard]] std::uint64_t bytesWritten() const { return bytesWritten_; }
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }
  [[nodiscard]] std::uint64_t prunedJobs() const { return pruned_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Snapshot + truncate when the WAL exceeds its bound (also callable
  /// explicitly, e.g. at shutdown).
  void compact();

 private:
  /// Writes and fsyncs one line. On a short write or a failed fsync the
  /// WAL is cut back to its last whole line and false is returned, with
  /// *error set when non-null.
  bool append(const std::string& line, std::string* error = nullptr);
  void appendState(const JobRecord& job);
  void applyLine(const std::string& source, int lineNumber,
                 const std::string& line, std::vector<std::string>* warnings);
  /// Replays one file. *wholeBytes receives the length of its whole lines:
  /// less than the file size when a torn final line was dropped, more by
  /// one when the final line replayed without its newline.
  [[nodiscard]] bool replayFile(const std::string& path,
                                const std::string& source,
                                std::vector<std::string>* warnings,
                                std::uint64_t* wholeBytes);
  [[nodiscard]] std::string encodeSubmit(const JobSpec& spec) const;
  [[nodiscard]] std::string encodeState(const JobRecord& job) const;

  std::string dir_;
  QueueLimits limits_;
  int walFd_ = -1;
  std::map<std::uint64_t, JobRecord> jobs_;
  std::uint64_t nextId_ = 1;
  std::uint64_t walBytes_ = 0;
  std::uint64_t bytesWritten_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t pruned_ = 0;
};

}  // namespace hdtn::service
