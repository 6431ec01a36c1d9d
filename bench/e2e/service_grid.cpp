// The service-grid workload: a figure-style sweep through the resident sweep
// service. One client process (this one) starts `hdtn_sim --serve`, submits
// the whole grid back to back on one connection, and polls status until
// every job ends. It is a closed batch: there is no arrival rate.
//
// A traced repetition then replays one grid job in-process to split the
// job's slot: the run alone, with the events sink, with the daemon's
// injected overrides (events + 6 h checkpoints), and direct
// saveCheckpoint/restoreCheckpoint calls at the same 6 h boundaries.
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/core/scenario.hpp"
#include "src/obs/event_log.hpp"
#include "src/service/jsonio.hpp"
#include "src/util/sha1.hpp"

#include "bench/e2e/bench.hpp"
#include "bench/e2e/spans.hpp"

namespace hdtn::bench {

namespace fs = std::filesystem;

namespace {

constexpr int kWorkers = 3;
constexpr double kPollSeconds = 0.05;
/// A grid that has not finished by then is reported as a failure.
constexpr double kGridDeadlineSeconds = 150.0;
/// The daemon's default job checkpoint cadence, which the replay mirrors.
constexpr SimTime kCheckpointEvery = 6 * kHour;

struct GridJob {
  std::string name;
  std::string scenario;
};

/// NUS 200/40/7 days x {mbt, mbt-q, mbt-qm} x access {0.1 .. 0.7} x three
/// seeds (one in the smoke lane, on a smaller campus).
std::vector<GridJob> gridJobs(const RepConfig& config, int* students) {
  const bool smoke = config.scale == Scale::kSmoke;
  *students = smoke ? 50 : 100;
  const int courses = smoke ? 10 : 20;
  const int days = smoke ? 4 : 7;
  std::vector<std::uint64_t> seeds = {config.seed};
  if (!smoke) {
    seeds = {3 * config.seed - 2, 3 * config.seed - 1, 3 * config.seed};
  }
  std::vector<GridJob> jobs;
  for (const char* protocol : {"mbt", "mbt-q", "mbt-qm"}) {
    for (const char* access : {"0.1", "0.3", "0.5", "0.7"}) {
      for (const std::uint64_t seed : seeds) {
        GridJob job;
        job.name = std::string(protocol) + "-a" + access + "-s" +
                   std::to_string(seed);
        std::ostringstream text;
        text << "name = " << job.name << "\n"
             << "trace-family = nus\n"
             << "trace-students = " << *students << "\n"
             << "trace-courses = " << courses << "\n"
             << "trace-days = " << days << "\n"
             << "trace-seed = " << seed << "\n"
             << "protocol = " << protocol << "\n"
             << "access = " << access << "\n"
             << "seed = " << seed << "\n";
        job.scenario = text.str();
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

/// One persistent connection to the daemon's control socket.
class DaemonClient {
 public:
  DaemonClient() = default;
  ~DaemonClient() { disconnect(); }
  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  /// One connection attempt; false while the daemon is not listening yet.
  bool connect(const std::string& path) {
    disconnect();
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      disconnect();
      return false;
    }
    return true;
  }

  void disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  /// Sends one request line and returns the one-line reply.
  std::string request(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send to daemon failed");
      sent += static_cast<std::size_t>(n);
    }
    std::size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("daemon closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string reply = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return reply;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The daemon subprocess. The destructor asks it to shut down (SIGTERM
/// makes it checkpoint-stop its workers) and reaps it, so no process
/// outlives the repetition even when the workload throws.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& exe, const std::string& stateDir) {
    makeDirs(stateDir);
    const std::string log = stateDir + "/daemon.log";
    const std::string stateFlag = "--state-dir=" + stateDir;
    const std::string workersFlag = "--workers=" + std::to_string(kWorkers);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not inherit the report pipe on stdout.
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0) _exit(127);
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
      execl(exe.c_str(), exe.c_str(), "--serve", stateFlag.c_str(),
            workersFlag.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
  }
  ~DaemonProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      (void)reap();
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// True while the process has not exited.
  [[nodiscard]] bool running() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Waits for the exit; returns the wait status.
  int reap() {
    int status = 0;
    while (pid_ > 0 && waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
};

service::FlatObject parseReply(const std::string& reply) {
  service::FlatObject fields;
  std::string why;
  if (!service::parseFlatObject(service::stripArrayFields(reply), &fields,
                                &why)) {
    throw std::runtime_error("unparseable daemon reply: " + why);
  }
  if (!service::getBool(fields, "ok")) {
    throw std::runtime_error("daemon error: " +
                             service::getString(fields, "error"));
  }
  return fields;
}

/// Connects and pings until the daemon answers; throws when it exits or
/// does not answer within ten seconds.
void awaitPing(DaemonProcess& daemon, DaemonClient& client,
               const std::string& socketPath) {
  const double deadline = nowSeconds() + 10.0;
  while (!client.connect(socketPath)) {
    if (!daemon.running()) throw std::runtime_error("daemon exited at start");
    if (nowSeconds() > deadline) {
      throw std::runtime_error("daemon did not listen within 10 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (void)parseReply(client.request("{\"cmd\":\"ping\"}"));
}

void shutdownDaemon(DaemonProcess& daemon, DaemonClient& client) {
  (void)parseReply(client.request("{\"cmd\":\"shutdown\"}"));
  client.disconnect();
  const int status = daemon.reap();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("daemon did not exit cleanly");
  }
}

double processRssMib(pid_t pid) {
  std::FILE* in =
      std::fopen(("/proc/" + std::to_string(pid) + "/status").c_str(), "r");
  if (in == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), in) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(in);
  return kib / 1024.0;
}

std::vector<std::string> splitCsv(const std::string& row) {
  std::vector<std::string> fields;
  std::stringstream in(row);
  std::string field;
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

/// Client-side view of one job.
struct JobTimes {
  double submitted = 0.0;
  double acked = 0.0;
  double running = -1.0;
  double ended = -1.0;
  bool done = false;
  int attempts = 0;
  std::string row;
};

double fileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

/// Times every call into the wrapped sink.
class TimedSink final : public obs::EngineObserver {
 public:
  explicit TimedSink(obs::EngineObserver& inner) : inner_(inner) {}
  void onEvent(const obs::SimEvent& event) override {
    const double start = nowSeconds();
    inner_.onEvent(event);
    seconds_ += nowSeconds() - start;
  }
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  obs::EngineObserver& inner_;
  double seconds_ = 0.0;
};

/// Replays one grid job in-process (see the file comment) and reports the
/// checkpoint and sink layers. Every variant must reach the same result.
void replayJob(const GridJob& job, const std::string& dir, SpanRecorder& spans,
               std::int64_t parent, RepReport& report) {
  makeDirs(dir);
  std::istringstream text(job.scenario);
  std::vector<std::string> errors;
  const std::optional<core::Scenario> base =
      core::Scenario::parse(text, &errors);
  if (!base) throw std::runtime_error("grid scenario does not parse");
  const std::int64_t replay = spans.open("checkpoint.replay", parent, 1);
  std::string error;
  const double buildStart = nowSeconds();
  const std::optional<trace::ContactTrace> trace = base->trace.build(&error);
  if (!trace) throw std::runtime_error(error);
  report.set("trace.build_s", nowSeconds() - buildStart);
  report.set("trace.contacts", static_cast<double>(trace->contactCount()));

  auto timedRun = [&](const char* name, const core::Scenario& scenario) {
    const std::int64_t span = spans.open(name, replay, 1);
    const double start = nowSeconds();
    const auto outcome = core::runScenario(scenario, *trace, &error);
    const double took = nowSeconds() - start;
    spans.close(span);
    if (!outcome) throw std::runtime_error(error);
    return std::make_pair(took, resultDigest(outcome->result));
  };
  const std::string digest = timedRun("replay.plain", *base).second;
  // The daemon appends these overrides to every job it launches.
  core::Scenario withOverrides = *base;
  withOverrides.eventsOut = dir + "/events.jsonl";
  withOverrides.checkpointOut = dir + "/job.ckpt";
  withOverrides.checkpointEvery = kCheckpointEvery;
  const std::string fullDigest =
      timedRun("replay.overrides", withOverrides).second;

  // The same job through the layers' own calls: an events sink and a
  // checkpoint at every boundary.
  const std::string checkpoint = dir + "/direct.ckpt";
  const std::string eventsPath = dir + "/direct.jsonl";
  core::Engine engine(*trace, base->params);
  std::ofstream eventsFile(eventsPath);
  obs::JsonlEventSink sink(eventsFile);
  TimedSink timedSink(sink);
  engine.setObserver(&timedSink);
  const double directStart = nowSeconds();
  std::vector<double> saves;
  for (SimTime boundary = kCheckpointEvery; boundary < engine.endTime();
       boundary += kCheckpointEvery) {
    engine.runUntil(boundary);
    const std::int64_t span = spans.open("checkpoint.save", replay, 1);
    const double start = nowSeconds();
    engine.saveCheckpoint(checkpoint);
    saves.push_back(nowSeconds() - start);
    spans.close(span);
  }
  const core::EngineResult direct = engine.finish();
  const double finishStart = nowSeconds();
  sink.finish();
  eventsFile.close();
  const double sinkSeconds = timedSink.seconds() + nowSeconds() - finishStart;
  const double directSeconds = nowSeconds() - directStart;

  core::Engine restored(*trace, base->params);
  const std::int64_t restoreSpan =
      spans.open("checkpoint.restore", replay, 1);
  const double restoreStart = nowSeconds();
  restored.restoreCheckpoint(checkpoint);
  const double restoreSeconds = nowSeconds() - restoreStart;
  spans.close(restoreSpan);
  if (fullDigest != digest || resultDigest(direct) != digest ||
      resultDigest(restored.finish()) != digest) {
    throw std::runtime_error("checkpoint replay diverged from the plain run");
  }
  spans.close(replay);

  double saveSeconds = 0.0;
  for (const double save : saves) saveSeconds += save;
  report.set("core.checkpoint.saves_per_job",
             static_cast<double>(saves.size()));
  report.set("core.checkpoint.save_ms_p50", percentile(saves, 50) * 1e3);
  report.set("core.checkpoint.bytes", fileBytes(checkpoint));
  report.set("core.checkpoint.restore_ms", restoreSeconds * 1e3);
  report.set("core.checkpoint.job_share", saveSeconds / directSeconds);
  report.set("obs.jsonl_bytes_per_job", fileBytes(eventsPath));
  report.set("obs.sink_s_per_job", sinkSeconds);
  report.set("obs.events", static_cast<double>(sink.eventsWritten()));
}

}  // namespace

RepReport runServiceGrid(const RepConfig& config) {
  int students = 0;
  const std::vector<GridJob> jobs = gridJobs(config, &students);
  const std::string exe = config.exeDir + "/hdtn_sim";
  // Relative paths keep the socket path short wherever the checkout lives;
  // the daemon and its workers inherit this working directory.
  const std::string base = config.exeDir + "/state";
  makeDirs(base);
  if (chdir(base.c_str()) != 0) {
    throw std::runtime_error("cannot enter " + base);
  }
  const std::string stateDir = "grid-" + std::to_string(getpid());
  const std::string socketPath = stateDir + "/daemon.sock";

  RepReport report;
  SpanRecorder spans;
  const std::int64_t repSpan = spans.open("rep", -1);
  const std::int64_t setupSpan = spans.open("setup", repSpan);
  std::vector<double> setups;
  std::unique_ptr<DaemonProcess> daemon;
  DaemonClient client;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    if (daemon) shutdownDaemon(*daemon, client);
    daemon.reset();
    fs::remove_all(stateDir);
    const std::int64_t span = spans.open("daemon.start", setupSpan);
    const double start = nowSeconds();
    daemon = std::make_unique<DaemonProcess>(exe, stateDir);
    awaitPing(*daemon, client, socketPath);
    setups.push_back(nowSeconds() - start);
    spans.close(span);
  }
  spans.close(setupSpan);
  report.set("setup_s", median(setups));
  report.set("mem.rss_after_setup_mib", processRssMib(daemon->pid()));

  const std::int64_t gridSpan = spans.open("grid", repSpan);
  std::map<std::uint64_t, JobTimes> times;
  std::vector<double> acks;
  for (const GridJob& job : jobs) {
    const double start = nowSeconds();
    const service::FlatObject reply = parseReply(client.request(
        "{\"cmd\":\"submit\",\"name\":\"" + service::jsonEscape(job.name) +
        "\",\"priority\":0,\"scenario\":\"" +
        service::jsonEscape(job.scenario) + "\"}"));
    const double acked = nowSeconds();
    acks.push_back((acked - start) * 1e3);
    JobTimes& t = times[static_cast<std::uint64_t>(
        service::getInt(reply, "id"))];
    t.submitted = start;
    t.acked = acked;
  }
  const double gridStart = times.begin()->second.submitted;
  service::FlatObject lastStatus;
  double gridEnd = 0.0;
  while (true) {
    const std::string reply = client.request("{\"cmd\":\"status\"}");
    const double now = nowSeconds();
    lastStatus = parseReply(reply);
    std::size_t ended = 0;
    for (const std::string& text : service::splitObjectArray(
             service::extractArrayBody(reply, "jobs"))) {
      service::FlatObject job;
      if (!service::parseFlatObject(text, &job, nullptr)) continue;
      const auto it =
          times.find(static_cast<std::uint64_t>(service::getInt(job, "id")));
      if (it == times.end()) continue;
      JobTimes& t = it->second;
      const std::string state = service::getString(job, "state");
      const bool terminal =
          state == "done" || state == "failed" || state == "cancelled";
      if (t.running < 0.0 && (state == "running" || terminal)) t.running = now;
      if (terminal && t.ended < 0.0) {
        t.ended = now;
        t.done = state == "done";
        t.attempts = static_cast<int>(service::getInt(job, "attempts"));
        t.row = service::getString(job, "result");
      }
      if (t.ended >= 0.0) ++ended;
    }
    if (ended == times.size()) {
      gridEnd = now;
      break;
    }
    if (now - gridStart > kGridDeadlineSeconds) {
      throw std::runtime_error("grid did not finish within the deadline");
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
  }
  spans.close(gridSpan);
  shutdownDaemon(*daemon, client);
  daemon.reset();

  std::vector<std::string> rows;
  std::vector<double> waits;
  std::vector<double> slots;
  double fileRatio = 0.0;
  double metadataRatio = 0.0;
  double contacts = 0.0;
  double attempts = 0.0;
  std::size_t failed = 0;
  for (const auto& [id, t] : times) {
    const std::int64_t job =
        spans.add("job", t.submitted, t.ended, gridSpan, id);
    spans.add("submit", t.submitted, t.acked, job, id);
    spans.add("queued", t.acked, t.running, job, id);
    spans.add("running", t.running, t.ended, job, id);
    report.turnarounds.push_back(t.ended - t.submitted);
    waits.push_back(t.running - t.acked);
    slots.push_back(t.ended - t.running);
    attempts += t.attempts;
    const std::vector<std::string> fields = splitCsv(t.row);
    if (!t.done || fields.size() != 8) {
      ++failed;
      continue;
    }
    rows.push_back(t.row);
    metadataRatio += std::atof(fields[2].c_str());
    fileRatio += std::atof(fields[3].c_str());
    contacts += std::atof(fields[7].c_str());
  }
  std::sort(rows.begin(), rows.end());
  std::string joined;
  for (const std::string& row : rows) joined += row + "\n";
  const double doneJobs =
      static_cast<double>(std::max<std::size_t>(1, rows.size()));
  report.digest = Sha1::hash(joined).hex().substr(0, 16);
  report.set("wall_s", gridEnd - gridStart);
  report.set("jobs", static_cast<double>(times.size()));
  report.set("jobs_failed", static_cast<double>(failed));
  report.set("contacts", contacts);
  report.set("nodes", students);
  report.set("file_ratio", fileRatio / doneJobs);
  report.set("metadata_ratio", metadataRatio / doneJobs);

  if (config.traced) {
    report.set("service.submit_ack_ms_p50", percentile(acks, 50));
    report.set("service.submit_ack_ms_p70", percentile(acks, 70));
    report.set("service.queue_wait_s_p50", percentile(waits, 50));
    report.set("service.job_slot_s_p50", percentile(slots, 50));
    report.set("service.attempts_per_job",
               attempts / static_cast<double>(times.size()));
    report.set("service.wal_bytes",
               static_cast<double>(service::getInt(lastStatus, "wal_bytes")));
    report.set("service.output_bytes_per_job",
               static_cast<double>(
                   service::getInt(lastStatus, "output_bytes_written")) /
                   static_cast<double>(times.size()));
    replayJob(jobs.front(), stateDir + "/replay", spans, repSpan, report);
    spans.close(repSpan);
    spans.write(config.exeDir + "/out/trace_" + config.workload + ".json",
                config.workload);
  }
  fs::remove_all(stateDir);
  return report;
}

}  // namespace hdtn::bench
