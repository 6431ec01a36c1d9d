#include "bench/supervisor.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "src/core/checkpoint.hpp"
#include "src/service/exec.hpp"
#include "src/util/serialize.hpp"

namespace hdtn::bench {

namespace {

void sleepSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Parses one journal line into (key, values). Returns false with *why set
/// when the line is not a well-formed entry.
bool parseJournalLine(const std::string& line, std::string* key,
                      std::vector<double>* values, std::string* why) {
  // {"point":"KEY","values":[v1,v2]} — parsed structurally, not with a
  // JSON library.
  const std::string pointTag = "\"point\":\"";
  const std::string valuesTag = "\"values\":[";
  const std::size_t p = line.find(pointTag);
  const std::size_t v = line.find(valuesTag);
  if (p == std::string::npos || v == std::string::npos) {
    *why = "missing point/values fields";
    return false;
  }
  const std::size_t keyStart = p + pointTag.size();
  const std::size_t keyEnd = line.find('"', keyStart);
  if (keyEnd == std::string::npos) {
    *why = "unterminated point key";
    return false;
  }
  const std::size_t valuesStart = v + valuesTag.size();
  const std::size_t valuesEnd = line.find(']', valuesStart);
  if (valuesEnd == std::string::npos) {
    *why = "unterminated values array";
    return false;
  }
  std::vector<double> parsed;
  std::stringstream nums(line.substr(valuesStart, valuesEnd - valuesStart));
  std::string item;
  while (std::getline(nums, item, ',')) {
    char* end = nullptr;
    const double value = std::strtod(item.c_str(), &end);
    if (end == item.c_str()) {
      *why = "unparseable value '" + item + "'";
      return false;
    }
    parsed.push_back(value);
  }
  if (parsed.empty()) {
    *why = "empty values array";
    return false;
  }
  *key = line.substr(keyStart, keyEnd - keyStart);
  *values = std::move(parsed);
  return true;
}

}  // namespace

SubprocessResult runSubprocess(const std::vector<std::string>& argv,
                               double timeoutSeconds) {
  const service::ChildOutcome run = service::runChild(argv, timeoutSeconds);
  SubprocessResult result;
  result.output = run.output;
  switch (run.cause) {
    case service::ExitCause::kCleanExit:
      result.exitCode = run.exitCode;
      break;
    case service::ExitCause::kSignaled:
      result.signaled = true;
      break;
    case service::ExitCause::kTimedOut:
      // The deadline kill is a SIGKILL, so a timed-out child is also a
      // signaled one — callers historically check either flag.
      result.timedOut = true;
      result.signaled = true;
      break;
  }
  return result;
}

void SweepJournal::load() {
  done_.clear();
  issues_.clear();
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  const bool endsWithNewline =
      !contents.empty() && contents.back() == '\n';
  std::istringstream lines(contents);
  std::string line;
  int lineNumber = 0;
  while (std::getline(lines, line)) {
    ++lineNumber;
    if (line.empty()) continue;
    std::string key;
    std::vector<double> values;
    std::string why;
    if (parseJournalLine(line, &key, &values, &why)) {
      done_[key] = std::move(values);
      continue;
    }
    const bool lastLine = lines.peek() == EOF;
    if (lastLine && !endsWithNewline) {
      // A crash mid-append leaves exactly one torn line, always at the
      // tail: drop it, the point simply re-runs.
      issues_.push_back("dropped truncated final line " +
                        std::to_string(lineNumber) +
                        " (crash mid-append): " + why);
    } else {
      issues_.push_back("line " + std::to_string(lineNumber) +
                        ": malformed entry (" + why + ")");
    }
  }
}

const std::vector<double>* SweepJournal::values(const std::string& key) const {
  const auto it = done_.find(key);
  return it == done_.end() ? nullptr : &it->second;
}

void SweepJournal::record(const std::string& key,
                          const std::vector<double>& values) {
  done_[key] = values;
  std::ofstream out(path_, std::ios::app);
  out << "{\"point\":\"" << key << "\",\"values\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
    out << (i == 0 ? "" : ",") << buf;
  }
  out << "]}\n" << std::flush;
}

std::string formatResultLine(const std::string& key,
                             const std::vector<double>& values) {
  std::string line = "RESULT " + key;
  for (const double value : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.17g", value);
    line += buf;
  }
  line += "\n";
  return line;
}

bool parseResultLine(const std::string& output, const std::string& key,
                     std::vector<double>* values) {
  std::istringstream lines(output);
  std::string line;
  const std::string prefix = "RESULT " + key + " ";
  while (std::getline(lines, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    std::istringstream nums(line.substr(prefix.size()));
    std::vector<double> parsed;
    double value = 0.0;
    while (nums >> value) parsed.push_back(value);
    if (parsed.empty()) return false;
    *values = std::move(parsed);
    return true;
  }
  return false;
}

std::optional<std::vector<double>> superviseOnePoint(
    const SupervisorOptions& options, SweepJournal& journal,
    const std::string& key, const std::vector<std::string>& childArgv,
    const std::string& checkpointPath, std::string* error) {
  if (const std::vector<double>* recorded = journal.values(key)) {
    return *recorded;
  }
  service::RetryPolicy policy;
  policy.maxAttempts = options.maxAttempts;
  policy.backoffBaseSeconds = options.backoffBaseSeconds;
  std::string lastFailure = "never attempted";
  for (int attempt = 1; attempt <= options.maxAttempts; ++attempt) {
    if (attempt > 1) sleepSeconds(service::backoffSeconds(policy, attempt));
    if (attempt == options.maxAttempts && !checkpointPath.empty()) {
      // Last chance: if the checkpoint itself is what keeps killing the
      // child, a cold start is better than burning the final attempt on it.
      std::error_code ec;
      std::filesystem::remove(checkpointPath, ec);
    }
    const service::ChildOutcome run =
        service::runChild(childArgv, options.pointTimeoutSeconds);
    const service::RetryDecision decision =
        service::classifyOutcome(run, policy);
    std::vector<double> values;
    if (decision == service::RetryDecision::kSuccess &&
        parseResultLine(run.output, key, &values)) {
      journal.record(key, values);
      return values;
    }
    const std::string what =
        service::describeOutcome(run, options.pointTimeoutSeconds);
    if (decision == service::RetryDecision::kFailFast) {
      // Deterministic validation failure: re-running the same command
      // cannot change the answer, so don't burn the remaining attempts.
      if (error != nullptr) {
        *error = "point " + key + ": validation failure (" + what +
                 "); not retried";
      }
      return std::nullopt;
    }
    lastFailure = decision == service::RetryDecision::kSuccess
                      ? "no RESULT line in output"
                      : what;
  }
  if (error != nullptr) {
    *error = "point " + key + " failed after " +
             std::to_string(options.maxAttempts) +
             " attempt(s); last failure: " + lastFailure;
  }
  return std::nullopt;
}

std::optional<std::vector<std::size_t>> parsePointKey(
    const std::string& key, const std::string& figure,
    const std::vector<SweepAxis>& axes) {
  std::string expected = figure;
  for (const SweepAxis& axis : axes) {
    expected += ":<" + std::string(axis.name) + ">";
  }
  expected += ":<seed>";
  std::istringstream in(key);
  std::string part;
  bool ok = std::getline(in, part, ':') && part == figure;
  std::vector<std::size_t> indices;
  for (std::size_t a = 0; ok && a < axes.size(); ++a) {
    ok = static_cast<bool>(std::getline(in, part, ':'));
    indices.push_back(static_cast<std::size_t>(std::atoll(part.c_str())));
  }
  if (!ok || !std::getline(in, part)) {
    std::cerr << "bad --point key '" << key << "' (expected " << expected
              << ")\n";
    return std::nullopt;
  }
  const int seed = std::atoi(part.c_str());
  bool inRange = seed >= 1;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    inRange = inRange && indices[a] < axes[a].size;
  }
  if (!inRange) {
    std::cerr << "--point key '" << key << "' is out of range\n";
    return std::nullopt;
  }
  indices.push_back(static_cast<std::size_t>(seed));
  return indices;
}

bool runSupervisedSweep(
    const CommonArgs& common, const char* selfPath, const std::string& figure,
    const std::vector<SweepAxis>& axes, int seeds, std::size_t minValues,
    const std::function<void(std::size_t task,
                             const std::vector<double>& values)>& store) {
  SupervisorOptions options;
  options.journalPath = common.superviseJournal;
  options.pointTimeoutSeconds = common.pointTimeoutSeconds;
  options.maxAttempts = common.maxAttempts;
  SweepJournal journal(options.journalPath);
  journal.load();
  for (const std::string& issue : journal.issues()) {
    std::cerr << "journal replay: " << issue << "\n";
  }
  std::cout << "supervised sweep: journal " << journal.path() << " ("
            << journal.size() << " point(s) already done), timeout "
            << options.pointTimeoutSeconds << " s, " << options.maxAttempts
            << " attempt(s) per point\n";
  const auto seedCount = static_cast<std::size_t>(seeds);
  std::size_t total = seedCount;
  for (const SweepAxis& axis : axes) total *= axis.size;
  for (std::size_t task = 0; task < total; ++task) {
    // Task index -> "<figure>:<i1>:...:<iN>:<seed>", seed varying fastest.
    std::string key = ":" + std::to_string(task % seedCount + 1);
    std::size_t rest = task / seedCount;
    for (std::size_t a = axes.size(); a-- > 0;) {
      key = ":" + std::to_string(rest % axes[a].size) + key;
      rest /= axes[a].size;
    }
    key = figure + key;
    const bool journaled = journal.contains(key);
    std::string checkpoint = common.superviseJournal + "." + key + ".ckpt";
    for (char& c : checkpoint) {
      if (c == ':') c = '_';
    }
    std::vector<std::string> childArgv = {
        selfPath, "--point=" + key, "--point-checkpoint=" + checkpoint,
        "--checkpoint-every=" + std::to_string(common.checkpointEvery)};
    if (!common.scenarioPath.empty()) {
      childArgv.push_back("--scenario=" + common.scenarioPath);
    }
    std::string error;
    const auto values = superviseOnePoint(options, journal, key, childArgv,
                                          checkpoint, &error);
    if (!values) {
      std::cerr << "supervise: " << error << "\n";
      return false;
    }
    if (values->size() < minValues) {
      std::cerr << "supervise: point " << key
                << " returned a malformed RESULT line\n";
      return false;
    }
    store(task, *values);
    std::cout << "  [" << task + 1 << "/" << total << "] " << key
              << (journaled ? " (journaled)" : " ok") << "\n";
    // The point finished; its resume checkpoint has no further use.
    std::error_code ec;
    std::filesystem::remove(checkpoint, ec);
  }
  return true;
}

core::EngineResult runWithCheckpoints(const trace::ContactTrace& trace,
                                      const core::EngineParams& params,
                                      const std::string& path,
                                      Duration every) {
  core::Engine engine(trace, params);
  SimTime next = every;
  if (!path.empty() && std::filesystem::exists(path)) {
    try {
      const core::CheckpointInfo info = core::readCheckpointInfo(path);
      Deserializer extra(info.extra);
      const SimTime savedNext = extra.i64();
      engine.restoreCheckpoint(path);
      next = savedNext;
    } catch (const std::exception&) {
      // Unreadable or mismatched checkpoint: start cold; the retry budget
      // already covers the recomputation.
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  }
  const SimTime end = engine.endTime();
  while (!path.empty() && next < end) {
    engine.runUntil(next);
    next += every;
    Serializer extra;
    extra.i64(next);
    engine.saveCheckpoint(path, extra.bytes());
  }
  return engine.finish();
}

}  // namespace hdtn::bench
