#include "bench/supervisor.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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

/// "v1 v2 ..." at %.17g, so parsing gives back the same doubles.
std::string formatValues(const std::vector<double>& values) {
  std::string out;
  for (const double value : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.17g", out.empty() ? "" : " ", value);
    out += buf;
  }
  return out;
}

bool parseValues(const std::string& text, std::vector<double>* values) {
  std::istringstream nums(text);
  std::vector<double> parsed;
  double value = 0.0;
  while (nums >> value) parsed.push_back(value);
  if (parsed.empty()) return false;
  *values = std::move(parsed);
  return true;
}

/// The newest job for sweep point `key`; nullptr when it was never
/// submitted.
service::JobRecord* newestJob(service::WorkQueue& queue,
                              const std::string& key) {
  const auto& jobs = queue.jobs();
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
    if (it->second.spec.name == key) return queue.find(it->first);
  }
  return nullptr;
}

}  // namespace

std::string formatResultLine(const std::string& key,
                             const std::vector<double>& values) {
  return "RESULT " + key + " " + formatValues(values) + "\n";
}

bool parseResultLine(const std::string& output, const std::string& key,
                     std::vector<double>* values) {
  std::istringstream lines(output);
  std::string line;
  const std::string prefix = "RESULT " + key + " ";
  while (std::getline(lines, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return parseValues(line.substr(prefix.size()), values);
    }
  }
  return false;
}

std::optional<std::vector<double>> superviseOnePoint(
    const SupervisorOptions& options, service::WorkQueue& queue,
    const std::string& key, const std::vector<std::string>& childArgv,
    const std::string& checkpointPath, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  service::JobRecord* job = newestJob(queue, key);
  if (job != nullptr && job->state == service::JobState::kDone) {
    std::vector<double> values;
    if (parseValues(job->result, &values)) return values;
    return fail("point " + key + ": unreadable result '" + job->result + "'");
  }
  if (job == nullptr || job->terminal()) {
    std::string why;
    const std::uint64_t id = queue.submit(key, 0, "", &why);
    if (id == 0) return fail("point " + key + ": " + why);
    job = queue.find(id);
  }
  const std::uint64_t id = job->spec.id;
  service::RetryPolicy policy;
  policy.maxAttempts = options.maxAttempts;
  policy.backoffBaseSeconds = options.backoffBaseSeconds;
  std::string lastFailure = job->error.empty() ? "attempt interrupted"
                                               : job->error;
  while (job->attempts < options.maxAttempts) {
    const int attempt = job->attempts + 1;
    if (attempt > 1) sleepSeconds(service::backoffSeconds(policy, attempt));
    if (attempt == options.maxAttempts && !checkpointPath.empty()) {
      // Last chance: if the checkpoint itself is what keeps killing the
      // child, a cold start is better than burning the final attempt on it.
      std::error_code ec;
      std::filesystem::remove(checkpointPath, ec);
    }
    queue.markRunning(id);
    const service::ChildOutcome run =
        service::runChild(childArgv, options.pointTimeoutSeconds);
    const service::RetryDecision decision =
        service::classifyOutcome(run, policy);
    std::vector<double> values;
    if (decision == service::RetryDecision::kSuccess &&
        parseResultLine(run.output, key, &values)) {
      queue.markDone(id, formatValues(values));
      return values;
    }
    const std::string what =
        service::describeOutcome(run, options.pointTimeoutSeconds);
    if (decision == service::RetryDecision::kFailFast) {
      // Deterministic validation failure: re-running the same command
      // cannot change the answer, so don't burn the remaining attempts.
      queue.markFailed(id, what);
      return fail("point " + key + ": validation failure (" + what +
                  "); not retried");
    }
    lastFailure = decision == service::RetryDecision::kSuccess
                      ? "no RESULT line in output"
                      : what;
    queue.markRetrying(id, lastFailure, 0.0);
  }
  queue.markFailed(id, lastFailure);
  return fail("point " + key + " failed after " +
              std::to_string(options.maxAttempts) +
              " attempt(s); last failure: " + lastFailure);
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
  options.pointTimeoutSeconds = common.pointTimeoutSeconds;
  options.maxAttempts = common.maxAttempts;
  const auto seedCount = static_cast<std::size_t>(seeds);
  std::size_t total = seedCount;
  for (const SweepAxis& axis : axes) total *= axis.size;
  // One job per point, and every done point kept through a compaction.
  service::QueueLimits limits;
  limits.maxDepth = total;
  limits.keepTerminal = total;
  service::WorkQueue queue(common.superviseJournal, limits);
  std::string error;
  std::vector<std::string> warnings;
  const bool opened = queue.open(&error, &warnings);
  for (const std::string& warning : warnings) {
    std::cerr << "journal replay: " << warning << "\n";
  }
  if (!opened) {
    std::cerr << "supervise: " << error << "\n";
    return false;
  }
  std::cout << "supervised sweep: journal " << common.superviseJournal
            << " (" << queue.countInState(service::JobState::kDone)
            << " point(s) already done), timeout "
            << options.pointTimeoutSeconds << " s, " << options.maxAttempts
            << " attempt(s) per point\n";
  for (std::size_t task = 0; task < total; ++task) {
    // Task index -> "<figure>:<i1>:...:<iN>:<seed>", seed varying fastest.
    std::string key = ":" + std::to_string(task % seedCount + 1);
    std::size_t rest = task / seedCount;
    for (std::size_t a = axes.size(); a-- > 0;) {
      key = ":" + std::to_string(rest % axes[a].size) + key;
      rest /= axes[a].size;
    }
    key = figure + key;
    const service::JobRecord* prior = newestJob(queue, key);
    const bool journaled =
        prior != nullptr && prior->state == service::JobState::kDone;
    std::string checkpoint = key + ".ckpt";
    for (char& c : checkpoint) {
      if (c == ':') c = '_';
    }
    checkpoint = common.superviseJournal + "/" + checkpoint;
    std::vector<std::string> childArgv = {
        selfPath, "--point=" + key, "--point-checkpoint=" + checkpoint,
        "--checkpoint-every=" + std::to_string(common.checkpointEvery)};
    if (!common.scenarioPath.empty()) {
      childArgv.push_back("--scenario=" + common.scenarioPath);
    }
    const auto values = superviseOnePoint(options, queue, key, childArgv,
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
