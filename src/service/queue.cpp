#include "src/service/queue.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "src/service/jsonio.hpp"

namespace hdtn::service {

namespace fs = std::filesystem;

const char* jobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kPreempted: return "preempted";
    case JobState::kRetrying: return "retrying";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

namespace {

bool parseStateName(const std::string& name, JobState* out) {
  for (const JobState state :
       {JobState::kQueued, JobState::kRunning, JobState::kPreempted,
        JobState::kRetrying, JobState::kDone, JobState::kFailed,
        JobState::kCancelled}) {
    if (name == jobStateName(state)) {
      *out = state;
      return true;
    }
  }
  return false;
}

}  // namespace

WorkQueue::WorkQueue(std::string dir, QueueLimits limits)
    : dir_(std::move(dir)), limits_(limits) {}

WorkQueue::~WorkQueue() {
  if (walFd_ >= 0) close(walFd_);
}

bool WorkQueue::open(std::string* error, std::vector<std::string>* warnings) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create queue directory " + dir_ + ": " + ec.message();
    }
    return false;
  }
  jobs_.clear();
  nextId_ = 1;
  const std::string snapshotPath = dir_ + "/queue.snapshot";
  const std::string walPath = dir_ + "/queue.wal";
  std::uint64_t wholeBytes = 0;
  if (fs::exists(snapshotPath) &&
      !replayFile(snapshotPath, "queue.snapshot", warnings, &wholeBytes)) {
    // A snapshot we cannot open at all (unlike one with bad lines, which
    // replayFile tolerates) means the directory is unusable.
    if (error != nullptr) *error = "cannot read " + snapshotPath;
    return false;
  }
  wholeBytes = 0;
  if (fs::exists(walPath) &&
      !replayFile(walPath, "queue.wal", warnings, &wholeBytes)) {
    if (error != nullptr) *error = "cannot read " + walPath;
    return false;
  }
  // Jobs that were running when the previous daemon died have no worker
  // anymore; requeue them to resume from their checkpoints. The attempt
  // that was interrupted stays counted.
  for (auto& [id, job] : jobs_) {
    if (job.state == JobState::kRunning) {
      job.state = JobState::kQueued;
      job.resume = true;
    }
  }
  walFd_ = ::open(walPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (walFd_ < 0) {
    if (error != nullptr) {
      *error = "cannot open " + walPath + ": " + std::strerror(errno);
    }
    return false;
  }
  // Appending after a torn tail would glue the next line onto it, and the
  // replay after that would reject the acknowledged line as malformed.
  const std::uint64_t size = fs::file_size(walPath, ec);
  if (wholeBytes < size &&
      ftruncate(walFd_, static_cast<off_t>(wholeBytes)) != 0) {
    if (error != nullptr) {
      *error = "cannot cut the torn tail off " + walPath + ": " +
               std::strerror(errno);
    }
    return false;
  }
  walBytes_ = std::min(size, wholeBytes);
  return wholeBytes <= size || append("\n", error);
}

bool WorkQueue::replayFile(const std::string& path, const std::string& source,
                           std::vector<std::string>* warnings,
                           std::uint64_t* wholeBytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  *wholeBytes = content.size();
  std::size_t pos = 0;
  int lineNumber = 0;
  while (pos < content.size()) {
    ++lineNumber;
    std::size_t end = content.find('\n', pos);
    const bool torn = end == std::string::npos;
    if (torn) end = content.size();
    const std::string line = content.substr(pos, end - pos);
    const std::size_t lineStart = pos;
    pos = end + 1;
    if (line.empty()) continue;
    if (torn) {
      // Crash mid-append: the final line never got its newline. Drop it —
      // the operation it recorded was never acknowledged.
      FlatObject probe;
      std::string why;
      if (!parseFlatObject(line, &probe, &why)) {
        if (warnings != nullptr) {
          warnings->push_back(source + " line " +
                              std::to_string(lineNumber) +
                              ": dropped truncated final line "
                              "(crash mid-write)");
        }
        *wholeBytes = lineStart;
        break;
      }
      // It parses in full despite the missing newline; apply it.
      *wholeBytes = content.size() + 1;
    }
    applyLine(source, lineNumber, line, warnings);
  }
  return true;
}

void WorkQueue::applyLine(const std::string& source, int lineNumber,
                          const std::string& line,
                          std::vector<std::string>* warnings) {
  const auto warn = [&](const std::string& why) {
    if (warnings != nullptr) {
      warnings->push_back(source + " line " + std::to_string(lineNumber) +
                          ": " + why);
    }
  };
  FlatObject record;
  std::string why;
  if (!parseFlatObject(line, &record, &why)) {
    warn("malformed entry (" + why + ")");
    return;
  }
  const std::string op = getString(record, "op");
  const auto id = static_cast<std::uint64_t>(getInt(record, "id"));
  if (id == 0) {
    warn("entry without a job id");
    return;
  }
  if (op == "submit") {
    JobRecord job;
    job.spec.id = id;
    job.spec.name = getString(record, "name");
    job.spec.priority = static_cast<int>(getInt(record, "priority"));
    job.spec.scenarioText = getString(record, "scenario");
    jobs_[id] = std::move(job);
    if (id >= nextId_) nextId_ = id + 1;
    return;
  }
  if (op == "state") {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      warn("state update for unknown job " + std::to_string(id));
      return;
    }
    JobState state = JobState::kQueued;
    if (!parseStateName(getString(record, "state"), &state)) {
      warn("unknown state '" + getString(record, "state") + "'");
      return;
    }
    it->second.state = state;
    it->second.attempts = static_cast<int>(getInt(record, "attempts"));
    it->second.preemptions =
        static_cast<int>(getInt(record, "preemptions"));
    it->second.resume = getBool(record, "resume");
    it->second.error = getString(record, "error");
    it->second.result = getString(record, "result");
    return;
  }
  warn("unknown op '" + op + "'");
}

std::string WorkQueue::encodeSubmit(const JobSpec& spec) const {
  return "{\"op\":\"submit\",\"id\":" + std::to_string(spec.id) +
         ",\"name\":\"" + jsonEscape(spec.name) +
         "\",\"priority\":" + std::to_string(spec.priority) +
         ",\"scenario\":\"" + jsonEscape(spec.scenarioText) + "\"}\n";
}

std::string WorkQueue::encodeState(const JobRecord& job) const {
  return "{\"op\":\"state\",\"id\":" + std::to_string(job.spec.id) +
         ",\"state\":\"" + jobStateName(job.state) +
         "\",\"attempts\":" + std::to_string(job.attempts) +
         ",\"preemptions\":" + std::to_string(job.preemptions) +
         ",\"resume\":" + (job.resume ? "true" : "false") +
         ",\"error\":\"" + jsonEscape(job.error) + "\",\"result\":\"" +
         jsonEscape(job.result) + "\"}\n";
}

bool WorkQueue::append(const std::string& line, std::string* error) {
  if (walFd_ < 0) return false;
  // One full line per write, fsync'd before the caller proceeds: the
  // durability contract is that an acknowledged operation survives any
  // crash. A torn write can only be the final line, which replay drops.
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = write(walFd_, line.data() + off, line.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  bytesWritten_ += off;
  if (off < line.size() || fsync(walFd_) != 0) {
    // A full disk or a failed flush: the operation is not acknowledged, and
    // its partial line must not prefix the next one.
    if (error != nullptr) {
      *error = "cannot write " + dir_ + "/queue.wal: " + std::strerror(errno);
    }
    if (ftruncate(walFd_, static_cast<off_t>(walBytes_)) != 0) {
      walBytes_ += off;
    }
    return false;
  }
  walBytes_ += line.size();
  if (walBytes_ > limits_.maxWalBytes) compact();
  return true;
}

void WorkQueue::appendState(const JobRecord& job) {
  append(encodeState(job));
}

std::uint64_t WorkQueue::submit(const std::string& name, int priority,
                                const std::string& scenarioText,
                                std::string* error) {
  if (activeDepth() >= limits_.maxDepth) {
    if (error != nullptr) {
      *error = "queue full (depth " + std::to_string(limits_.maxDepth) +
               "); resubmit after it drains";
    }
    return 0;
  }
  JobRecord job;
  job.spec.id = nextId_++;
  job.spec.name = name.empty() ? "job-" + std::to_string(job.spec.id) : name;
  job.spec.priority = priority;
  job.spec.scenarioText = scenarioText;
  if (!append(encodeSubmit(job.spec), error)) {
    --nextId_;
    return 0;
  }
  const std::uint64_t id = job.spec.id;
  jobs_[id] = std::move(job);
  return id;
}

JobRecord* WorkQueue::find(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

JobRecord* WorkQueue::nextRunnable(double nowSeconds) {
  JobRecord* best = nullptr;
  for (auto& [id, job] : jobs_) {
    if (!job.waiting()) continue;
    if (job.state == JobState::kRetrying &&
        job.notBeforeSeconds > nowSeconds) {
      continue;
    }
    if (best == nullptr || job.spec.priority > best->spec.priority) {
      best = &job;
    }
  }
  return best;
}

void WorkQueue::markRunning(std::uint64_t id) {
  JobRecord* job = find(id);
  if (job == nullptr) return;
  job->state = JobState::kRunning;
  ++job->attempts;
  appendState(*job);
}

void WorkQueue::markPreempted(std::uint64_t id) {
  JobRecord* job = find(id);
  if (job == nullptr) return;
  job->state = JobState::kPreempted;
  ++job->preemptions;
  job->resume = true;
  appendState(*job);
}

void WorkQueue::markRetrying(std::uint64_t id, const std::string& why,
                             double notBeforeSeconds) {
  JobRecord* job = find(id);
  if (job == nullptr) return;
  job->state = JobState::kRetrying;
  job->error = why;
  job->resume = true;
  job->notBeforeSeconds = notBeforeSeconds;
  appendState(*job);
}

void WorkQueue::markDone(std::uint64_t id, const std::string& result) {
  JobRecord* job = find(id);
  if (job == nullptr) return;
  job->state = JobState::kDone;
  job->error.clear();
  job->result = result;
  appendState(*job);
}

void WorkQueue::markFailed(std::uint64_t id, const std::string& why) {
  JobRecord* job = find(id);
  if (job == nullptr) return;
  job->state = JobState::kFailed;
  job->error = why;
  appendState(*job);
}

void WorkQueue::markCancelled(std::uint64_t id) {
  JobRecord* job = find(id);
  if (job == nullptr) return;
  job->state = JobState::kCancelled;
  appendState(*job);
}

std::size_t WorkQueue::countInState(JobState state) const {
  std::size_t count = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state == state) ++count;
  }
  return count;
}

std::size_t WorkQueue::activeDepth() const {
  std::size_t count = 0;
  for (const auto& [id, job] : jobs_) {
    if (!job.terminal()) ++count;
  }
  return count;
}

void WorkQueue::compact() {
  if (walFd_ < 0) return;
  // Prune the oldest terminal jobs past the keep bound; their output
  // directories stay on disk, only the queue records go.
  std::vector<std::uint64_t> terminal;
  for (const auto& [id, job] : jobs_) {
    if (job.terminal()) terminal.push_back(id);
  }
  if (terminal.size() > limits_.keepTerminal) {
    const std::size_t drop = terminal.size() - limits_.keepTerminal;
    for (std::size_t i = 0; i < drop; ++i) {
      jobs_.erase(terminal[i]);
      ++pruned_;
    }
  }
  const std::string snapshotPath = dir_ + "/queue.snapshot";
  const std::string tmpPath = snapshotPath + ".tmp";
  {
    const int fd =
        ::open(tmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return;
    std::string content;
    for (const auto& [id, job] : jobs_) {
      content += encodeSubmit(job.spec);
      content += encodeState(job);
    }
    std::size_t off = 0;
    while (off < content.size()) {
      const ssize_t n =
          write(fd, content.data() + off, content.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    bytesWritten_ += off;
    // A short write (a full disk) or a failed fsync leaves a snapshot that
    // misses jobs. Keep the old snapshot and the WAL, which together still
    // hold every acknowledged job, and count no compaction.
    const bool synced = off == content.size() && fsync(fd) == 0;
    const bool closed = close(fd) == 0;
    if (!synced || !closed) {
      ::unlink(tmpPath.c_str());
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmpPath, snapshotPath, ec);
  if (ec) return;
  // The snapshot now carries everything; the WAL can restart empty.
  if (ftruncate(walFd_, 0) == 0) {
    walBytes_ = 0;
  }
  ++compactions_;
}

}  // namespace hdtn::service
