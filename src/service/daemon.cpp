#include "src/service/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/core/scenario.hpp"
#include "src/service/jsonio.hpp"

namespace hdtn::service {

namespace fs = std::filesystem;

namespace {

/// Reads the last non-empty line of a file without loading it whole (the
/// worker's CSV result row, or the tail of an event stream).
std::string lastLine(const std::string& path, std::size_t tailBytes = 4096) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  const auto start =
      size > tailBytes ? size - static_cast<std::uint64_t>(tailBytes) : 0;
  in.seekg(static_cast<std::streamoff>(start));
  std::string tail((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r')) {
    tail.pop_back();
  }
  const std::size_t nl = tail.find_last_of('\n');
  return nl == std::string::npos ? tail : tail.substr(nl + 1);
}

std::uint64_t fileSizeOrZero(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::string errorReply(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + jsonEscape(message) + "\"}\n";
}

}  // namespace

Daemon::Daemon(DaemonConfig config) : config_(std::move(config)) {}

Daemon::~Daemon() {
  for (Client& client : clients_) {
    if (client.fd >= 0) close(client.fd);
  }
  if (listenFd_ >= 0) close(listenFd_);
  // WorkerSlot's ChildProcess destructor SIGKILLs anything still running;
  // a graceful stop goes through runLoop()/finishShutdown() instead.
}

std::string Daemon::jobDir(std::uint64_t id) const {
  return config_.stateDir + "/jobs/" + std::to_string(id);
}

bool Daemon::start(std::string* error) {
  queue_ = std::make_unique<WorkQueue>(config_.stateDir,
                                       config_.queueLimits);
  std::vector<std::string> warnings;
  if (!queue_->open(error, &warnings)) return false;
  for (const std::string& warning : warnings) {
    std::fprintf(stderr, "service: queue replay: %s\n", warning.c_str());
  }

  listenFd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    if (error != nullptr) *error = "socket() failed";
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socketPath.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "socket path too long: " + config_.socketPath;
    }
    return false;
  }
  std::strncpy(addr.sun_path, config_.socketPath.c_str(),
               sizeof(addr.sun_path) - 1);
  // A daemon that died to SIGKILL leaves its socket file behind; a fresh
  // bind needs it gone. Two live daemons on one state dir is operator
  // error the WAL's append-only format at least keeps non-corrupting.
  unlink(config_.socketPath.c_str());
  if (bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) {
      *error = "cannot bind " + config_.socketPath + ": " +
               std::strerror(errno);
    }
    return false;
  }
  if (listen(listenFd_, 16) != 0) {
    if (error != nullptr) *error = "listen() failed";
    return false;
  }
  fcntl(listenFd_, F_SETFL, O_NONBLOCK);
  writeStatusFile();
  return true;
}

void Daemon::runLoop() {
  while (step(0.05)) {
  }
}

bool Daemon::step(double waitSeconds) {
  if (stopped_) return false;
  if (externalShutdown_.load()) shuttingDown_ = true;
  pollSockets(waitSeconds);
  reapWorkers();
  watchdog();
  if (shuttingDown_) {
    // Stop every worker via checkpoint preemption; once the pool is empty
    // the queue state is compacted and the daemon exits. Waiting jobs stay
    // durable and resume on the next start.
    for (WorkerSlot& slot : workers_) {
      if (!slot.stopping) stopWorker(slot, /*cancelling=*/false);
    }
    if (workers_.empty()) {
      finishShutdown();
      return false;
    }
  } else {
    preemptForPriority();
    launchEligible();
  }
  const double now = monotonicSeconds();
  if (now >= nextStatusWrite_) {
    writeStatusFile();
    nextStatusWrite_ = now + 1.0;
  }
  return true;
}

void Daemon::finishShutdown() {
  queue_->compact();
  for (Client& client : clients_) {
    if (client.fd >= 0) close(client.fd);
  }
  clients_.clear();
  if (listenFd_ >= 0) {
    close(listenFd_);
    listenFd_ = -1;
  }
  unlink(config_.socketPath.c_str());
  writeStatusFile();
  stopped_ = true;
}

void Daemon::pollSockets(double waitSeconds) {
  std::vector<pollfd> fds;
  fds.reserve(clients_.size() + 1 + workers_.size());
  if (listenFd_ >= 0) {
    fds.push_back({listenFd_, POLLIN, 0});
  }
  for (const Client& client : clients_) {
    short events = POLLIN;
    if (!client.outbuf.empty()) events |= POLLOUT;
    fds.push_back({client.fd, events, 0});
  }
  // A worker's exit ends the wait, so reapWorkers hands its slot on at
  // once. The entries go last: the loops below read only the sockets'.
  const std::size_t polledClients = clients_.size();
  for (const WorkerSlot& slot : workers_) {
    if (slot.child->exitFd() >= 0) {
      fds.push_back({slot.child->exitFd(), POLLIN, 0});
    }
  }
  const int timeoutMs =
      std::max(0, static_cast<int>(waitSeconds * 1000.0));
  if (poll(fds.data(), fds.size(), timeoutMs) < 0) return;

  std::size_t index = 0;
  if (listenFd_ >= 0) {
    if ((fds[index].revents & POLLIN) != 0) {
      while (true) {
        const int fd = accept(listenFd_, nullptr, nullptr);
        if (fd < 0) break;
        fcntl(fd, F_SETFL, O_NONBLOCK);
        Client client;
        client.fd = fd;
        clients_.push_back(std::move(client));
      }
    }
    ++index;
  }
  // Clients accepted above are polled from the next step on.
  for (std::size_t i = 0; i < polledClients; ++i) {
    Client& client = clients_[i];
    const short revents = fds[index + i].revents;
    if ((revents & POLLIN) != 0) {
      char buf[4096];
      while (true) {
        const ssize_t n = recv(client.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          client.inbuf.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) client.closing = true;
        break;
      }
      std::size_t nl;
      while ((nl = client.inbuf.find('\n')) != std::string::npos) {
        const std::string line = client.inbuf.substr(0, nl);
        client.inbuf.erase(0, nl + 1);
        if (!line.empty()) client.outbuf += handleCommand(line);
      }
    }
    if ((revents & (POLLERR | POLLHUP)) != 0) client.closing = true;
    if (!client.outbuf.empty()) {
      const ssize_t n = send(client.fd, client.outbuf.data(),
                             client.outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) client.outbuf.erase(0, static_cast<std::size_t>(n));
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        client.closing = true;
      }
    }
  }
  clients_.erase(
      std::remove_if(clients_.begin(), clients_.end(),
                     [](Client& client) {
                       if (client.closing && client.outbuf.empty()) {
                         close(client.fd);
                         return true;
                       }
                       return false;
                     }),
      clients_.end());
}

std::string Daemon::handleCommand(const std::string& line) {
  FlatObject request;
  std::string why;
  if (!parseFlatObject(line, &request, &why)) {
    return errorReply("malformed request: " + why);
  }
  const std::string cmd = getString(request, "cmd");
  if (cmd == "ping") {
    return "{\"ok\":true}\n";
  }
  if (cmd == "submit") {
    if (draining_ || shuttingDown_) {
      return errorReply(shuttingDown_ ? "shutting down" : "draining");
    }
    const std::string scenarioText = getString(request, "scenario");
    // Validate before accepting: a scenario that cannot even parse would
    // only fail fast in a worker; rejecting it here keeps the queue clean.
    std::vector<std::string> errors;
    std::istringstream in(scenarioText);
    const auto parsed = core::Scenario::parse(in, &errors);
    if (parsed) {
      for (std::string& problem : parsed->validate()) {
        errors.push_back(std::move(problem));
      }
    }
    if (!errors.empty()) {
      std::string joined = "invalid scenario";
      for (const std::string& e : errors) joined += "; " + e;
      return errorReply(joined);
    }
    std::string error;
    const std::uint64_t id = queue_->submit(
        getString(request, "name"),
        static_cast<int>(getInt(request, "priority")), scenarioText, &error);
    if (id == 0) return errorReply(error);
    return "{\"ok\":true,\"id\":" + std::to_string(id) + "}\n";
  }
  if (cmd == "status") {
    return statusJson();
  }
  if (cmd == "cancel") {
    const auto id = static_cast<std::uint64_t>(getInt(request, "id"));
    JobRecord* job = queue_->find(id);
    if (job == nullptr) {
      return errorReply("no such job " + std::to_string(id));
    }
    if (job->terminal()) {
      return errorReply("job " + std::to_string(id) + " already " +
                        jobStateName(job->state));
    }
    if (job->state == JobState::kRunning) {
      for (WorkerSlot& slot : workers_) {
        if (slot.jobId == id) stopWorker(slot, /*cancelling=*/true);
      }
    }
    queue_->markCancelled(id);
    return "{\"ok\":true}\n";
  }
  if (cmd == "drain") {
    draining_ = true;
    return "{\"ok\":true,\"draining\":true}\n";
  }
  if (cmd == "shutdown") {
    shuttingDown_ = true;
    return "{\"ok\":true,\"shutting_down\":true}\n";
  }
  return errorReply("unknown command '" + cmd + "'");
}

void Daemon::launch(JobRecord& job) {
  const std::string dir = jobDir(job.spec.id);
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string scenarioPath = dir + "/scenario.txt";
  {
    std::ofstream out(scenarioPath);
    out << job.spec.scenarioText;
    if (!job.spec.scenarioText.empty() &&
        job.spec.scenarioText.back() != '\n') {
      out << "\n";
    }
    // Later keys win in the scenario format, so appending pins the
    // service-managed outputs regardless of what the submitter set.
    out << "# --- service-managed overrides (hdtn_sim --serve) ---\n";
    out << "events-out = " << dir << "/events.jsonl\n";
    out << "checkpoint-out = " << dir << "/job.ckpt\n";
    out << "checkpoint-every = " << config_.checkpointEverySimSeconds
        << "\n";
    out << "resume = " << (job.resume ? "true" : "false") << "\n";
  }
  WorkerSlot slot;
  slot.jobId = job.spec.id;
  slot.child = std::make_unique<ChildProcess>();
  std::string error;
  if (!slot.child->start(
          {config_.workerExe, "--scenario=" + scenarioPath, "--csv"},
          dir + "/stdout.log", &error)) {
    queue_->markFailed(job.spec.id, "cannot start worker: " + error);
    return;
  }
  queue_->markRunning(job.spec.id);
  workers_.push_back(std::move(slot));
}

void Daemon::stopWorker(WorkerSlot& slot, bool cancelling) {
  slot.stopping = true;
  slot.cancelling = cancelling;
  slot.stopDeadline = monotonicSeconds() + config_.graceSeconds;
  slot.child->requestStop();
}

void Daemon::watchdog() {
  const double now = monotonicSeconds();
  for (WorkerSlot& slot : workers_) {
    if (slot.stopping) {
      if (now >= slot.stopDeadline) slot.child->forceKill();
    } else if (slot.child->elapsedSeconds() >= config_.jobTimeoutSeconds) {
      // Hung worker: the watchdog reaps it and the retry policy treats it
      // as a timeout (retry with resume).
      slot.child->forceKill(/*countAsTimeout=*/true);
    }
  }
}

void Daemon::reapWorkers() {
  for (std::size_t i = 0; i < workers_.size();) {
    WorkerSlot& slot = workers_[i];
    if (slot.child->poll()) {
      ++i;
      continue;
    }
    const ChildOutcome outcome = slot.child->wait();
    const std::uint64_t id = slot.jobId;
    const bool stopping = slot.stopping;
    const bool cancelling = slot.cancelling;
    workers_.erase(workers_.begin() + static_cast<std::ptrdiff_t>(i));

    JobRecord* job = queue_->find(id);
    if (job == nullptr) continue;
    if (cancelling || job->state == JobState::kCancelled) {
      terminalOutputBytes_ += jobOutputBytes(id);
      continue;  // already marked cancelled by handleCommand
    }
    const RetryDecision decision = classifyOutcome(outcome, config_.retry);
    const std::string what =
        describeOutcome(outcome, config_.jobTimeoutSeconds);
    switch (decision) {
      case RetryDecision::kSuccess: {
        queue_->markDone(id,
                         lastLine(jobDir(id) + "/stdout.log").substr(0, 512));
        terminalOutputBytes_ += jobOutputBytes(id);
        break;
      }
      case RetryDecision::kPreempted:
        queue_->markPreempted(id);
        break;
      case RetryDecision::kFailFast:
        queue_->markFailed(id, "validation failure (" + what +
                                   "); not retried");
        terminalOutputBytes_ += jobOutputBytes(id);
        break;
      case RetryDecision::kRetry: {
        if (stopping) {
          // We killed it past the grace period; the last periodic
          // checkpoint stands in for the one it failed to write.
          queue_->markPreempted(id);
          break;
        }
        if (job->attempts >= config_.retry.maxAttempts) {
          queue_->markFailed(id, what + " after " +
                                     std::to_string(job->attempts) +
                                     " attempt(s)");
          terminalOutputBytes_ += jobOutputBytes(id);
        } else {
          queue_->markRetrying(
              id, what,
              monotonicSeconds() +
                  backoffSeconds(config_.retry, job->attempts + 1));
        }
        break;
      }
    }
  }
}

void Daemon::launchEligible() {
  const double now = monotonicSeconds();
  while (workers_.size() < config_.workers) {
    JobRecord* job = queue_->nextRunnable(now);
    if (job == nullptr) break;
    launch(*job);
    if (job->state != JobState::kRunning &&
        job->state != JobState::kFailed) {
      break;  // launch failed without a state change; avoid spinning
    }
  }
}

void Daemon::preemptForPriority() {
  if (workers_.size() < config_.workers) return;
  JobRecord* candidate = queue_->nextRunnable(monotonicSeconds());
  if (candidate == nullptr) return;
  WorkerSlot* victim = nullptr;
  int victimPriority = 0;
  for (WorkerSlot& slot : workers_) {
    if (slot.stopping) return;  // a preemption is already in flight
    const JobRecord* running = queue_->find(slot.jobId);
    if (running == nullptr) continue;
    if (victim == nullptr || running->spec.priority < victimPriority) {
      victim = &slot;
      victimPriority = running->spec.priority;
    }
  }
  if (victim != nullptr && candidate->spec.priority > victimPriority) {
    stopWorker(*victim, /*cancelling=*/false);
  }
}

std::uint64_t Daemon::jobOutputBytes(std::uint64_t id) const {
  const std::string dir = jobDir(id);
  std::uint64_t bytes = 0;
  for (const char* name :
       {"/stdout.log", "/events.jsonl", "/job.ckpt", "/scenario.txt",
        "/timeseries.csv"}) {
    bytes += fileSizeOrZero(dir + name);
  }
  return bytes;
}

std::int64_t Daemon::jobProgressSimSeconds(std::uint64_t id) const {
  // The worker's obs JSONL stream carries the simulation clock in every
  // event; the tail of the file is the cheapest live progress signal.
  const std::string line = lastLine(jobDir(id) + "/events.jsonl", 1024);
  const std::string tag = "\"t\":";
  const std::size_t pos = line.find(tag);
  if (pos == std::string::npos) return 0;
  try {
    return std::stoll(line.substr(pos + tag.size()));
  } catch (...) {
    return 0;
  }
}

std::string Daemon::statusJson() const {
  std::uint64_t liveBytes = 0;
  std::string jobsJson;
  for (const auto& [id, job] : queue_->jobs()) {
    if (!jobsJson.empty()) jobsJson += ",";
    pid_t pid = 0;
    for (const WorkerSlot& slot : workers_) {
      if (slot.jobId == id) pid = slot.child->pid();
    }
    std::int64_t progress = 0;
    if (job.state == JobState::kRunning) {
      progress = jobProgressSimSeconds(id);
      liveBytes += jobOutputBytes(id);
    }
    jobsJson += "{\"id\":" + std::to_string(id) + ",\"name\":\"" +
                jsonEscape(job.spec.name) + "\",\"state\":\"" +
                jobStateName(job.state) +
                "\",\"priority\":" + std::to_string(job.spec.priority) +
                ",\"attempts\":" + std::to_string(job.attempts) +
                ",\"preemptions\":" + std::to_string(job.preemptions) +
                ",\"pid\":" + std::to_string(pid) +
                ",\"progress_t\":" + std::to_string(progress) +
                ",\"error\":\"" + jsonEscape(job.error) +
                "\",\"result\":\"" + jsonEscape(job.result) + "\"}";
  }
  const std::size_t pending =
      queue_->countInState(JobState::kQueued) +
      queue_->countInState(JobState::kPreempted) +
      queue_->countInState(JobState::kRetrying) +
      queue_->countInState(JobState::kRunning);
  std::string out = "{\"ok\":true";
  out += ",\"draining\":" + std::string(draining_ ? "true" : "false");
  out += ",\"shutting_down\":" +
         std::string(shuttingDown_ ? "true" : "false");
  out += ",\"workers\":" + std::to_string(config_.workers);
  out += ",\"running\":" +
         std::to_string(queue_->countInState(JobState::kRunning));
  out += ",\"queued\":" +
         std::to_string(queue_->countInState(JobState::kQueued));
  out += ",\"preempted\":" +
         std::to_string(queue_->countInState(JobState::kPreempted));
  out += ",\"retrying\":" +
         std::to_string(queue_->countInState(JobState::kRetrying));
  out += ",\"done\":" + std::to_string(queue_->countInState(JobState::kDone));
  out += ",\"failed\":" +
         std::to_string(queue_->countInState(JobState::kFailed));
  out += ",\"cancelled\":" +
         std::to_string(queue_->countInState(JobState::kCancelled));
  out += ",\"pending\":" + std::to_string(pending);
  out += ",\"wal_bytes\":" + std::to_string(queue_->walBytes());
  out += ",\"journal_bytes_written\":" +
         std::to_string(queue_->bytesWritten());
  out += ",\"compactions\":" + std::to_string(queue_->compactions());
  out += ",\"pruned_jobs\":" + std::to_string(queue_->prunedJobs());
  out += ",\"output_bytes_written\":" +
         std::to_string(terminalOutputBytes_ + liveBytes);
  out += ",\"jobs\":[" + jobsJson + "]}\n";
  return out;
}

void Daemon::writeStatusFile() {
  // Atomic rewrite: the status file never grows, and a reader never sees a
  // torn write.
  const std::string path = config_.stateDir + "/status.json";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return;
    out << statusJson();
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
}

}  // namespace hdtn::service
