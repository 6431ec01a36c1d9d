// hdtn_bench — end-to-end benchmark of the simulator and the sweep service.
//
//   hdtn_bench --seed=1                          # all four workloads
//   hdtn_bench --workload=nus-mbt --seconds=25   # one workload, time-boxed
//   hdtn_bench --workload=city-sharded --trace   # per-layer metrics
//   hdtn_bench --smoke                           # tenth-size lane (ctest)
//
// Each repetition runs as a fresh child process of this binary; wait4 gives
// it its own peak RSS. End-to-end metrics come from untraced repetitions;
// with --trace, traced repetitions alternate with untraced ones and give
// the per-layer metrics. Every metric is printed as
// `workload metric value unit`, followed by one JSON line per workload,
// {"correct", "attempted", "failed", "metrics"}; with one workload it is the
// last line of stdout. A repetition whose result
// digest differs from the committed digest for its seed (or, without one,
// from the first repetition), and a job that does not end done, count as
// failed; the exit code is non-zero when anything failed. See README.md.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "src/util/args.hpp"

#include "bench/e2e/bench.hpp"

using namespace hdtn;
using namespace hdtn::bench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"contacts_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"kib_per_node", "KiB"},
    {"file_delivery_ratio", "ratio"},
    {"metadata_delivery_ratio", "ratio"},
    {"jobs_per_hour", "1/h"},
    {"turnaround_s_p50", "s"},
    {"turnaround_s_p70", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"trace.build_s", "s"},
    {"trace.contacts", "count"},
    {"core.engine.contact_steps", "count"},
    {"core.engine.contact_step_us_p50", "us"},
    {"core.engine.contact_step_us_p99", "us"},
    {"core.engine.publish_step_s", "s"},
    {"core.contact.pre_plan_s", "s"},
    {"core.contact.metadata_s", "s"},
    {"core.contact.piece_s", "s"},
    {"core.discovery.broadcasts", "count"},
    {"core.discovery.receptions_per_broadcast", "ratio"},
    {"core.download.broadcasts", "count"},
    {"core.download.receptions_per_broadcast", "ratio"},
    {"core.node.metadata_records", "count"},
    {"core.node.piece_files", "count"},
    {"core.node.peer_wanted_uris", "count"},
    {"core.node.proxied_queries", "count"},
    {"core.coding.row_ops", "count"},
    {"core.coding.innovative_ratio", "ratio"},
    {"core.coding.generations_decoded", "count"},
    {"core.coding.pollution_detected", "count"},
    {"core.recovery.frames_lost", "count"},
    {"core.recovery.retransmits", "count"},
    {"core.recovery.redelivery_ratio", "ratio"},
    {"core.recovery.repair_requests", "count"},
    {"faults.messages_dropped", "count"},
    {"faults.contacts_truncated", "count"},
    {"faults.adversary_attacks", "count"},
    {"core.reputation.quarantines", "count"},
    {"core.reputation.false_quarantines", "count"},
    {"core.sharded.components", "count"},
    {"core.sharded.day1_us_per_contact", "us"},
    {"core.sharded.day2_us_per_contact", "us"},
    {"core.sharded.day3_us_per_contact", "us"},
    {"core.sharded.slice_s_p50", "s"},
    {"core.sharded.slice_s_p85", "s"},
    {"mem.rss_after_setup_mib", "MiB"},
    {"core.checkpoint.saves_per_job", "count"},
    {"core.checkpoint.save_ms_p50", "ms"},
    {"core.checkpoint.bytes", "bytes"},
    {"core.checkpoint.restore_ms", "ms"},
    {"core.checkpoint.job_share", "ratio"},
    {"obs.jsonl_bytes_per_job", "bytes"},
    {"obs.sink_s_per_job", "s"},
    {"service.submit_ack_ms_p50", "ms"},
    {"service.submit_ack_ms_p70", "ms"},
    {"service.queue_wait_s_p50", "s"},
    {"service.job_slot_s_p50", "s"},
    {"service.attempts_per_job", "count"},
    {"service.wal_bytes", "bytes"},
    {"service.output_bytes_per_job", "bytes"},
    {"obs.events", "count"},
    {"obs.tracing_overhead_ratio", "ratio"},
};

/// The workloads, in the order a full run executes them.
const std::vector<std::string> kWorkloads = {
    "nus-mbt", "nus-coded-hostile", "city-sharded", "service-grid"};

/// Repetitions per workload when neither --reps nor --seconds is given.
int defaultReps(const std::string& workload) {
  return workload == "service-grid" ? 3 : 5;
}

int usage() {
  const std::vector<FlagHelp> flags = {
      {"seed=1", "workload seed (shifts trace and engine seeds)"},
      {"workload=NAME", "nus-mbt|nus-coded-hostile|city-sharded|service-grid "
                        "(default all)"},
      {"reps=N", "repetitions (default 5, 3 for service-grid)"},
      {"seconds=T", "time box: repeat while the next repetition fits in T s"},
      {"trace", "alternate traced repetitions and report per-layer metrics"},
      {"smoke", "every workload at a tenth of its size, traced, once"},
      {"json=PATH", "write the results with the environment stamp"},
  };
  std::fputs(formatUsage("hdtn_bench [options]", flags).c_str(), stderr);
  return 2;
}

std::string selfExecutable() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

const char* scaleName(Scale scale) {
  return scale == Scale::kSmoke ? "smoke" : "full";
}

// --- child side -------------------------------------------------------------

int runChild(const RepConfig& config) {
  try {
    const RepReport report = runRepetition(config);
    for (const auto& [name, value] : report.values) {
      std::printf("value %s %.17g\n", name.c_str(), value);
    }
    for (const double turnaround : report.turnarounds) {
      std::printf("turnaround %.17g\n", turnaround);
    }
    std::printf("digest %s\n", report.digest.c_str());
    return std::fflush(stdout) == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdtn_bench: %s repetition failed: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }
}

// --- parent side ------------------------------------------------------------

struct RepOutcome {
  bool traced = false;
  bool ok = false;
  RepReport report;
  std::map<std::string, double> values;
  double peakRssMib = 0.0;
  /// Spawn to exit, as seen by the parent.
  double turnaround = 0.0;
};

RepOutcome spawnRepetition(const std::string& self, const RepConfig& config) {
  const std::vector<std::string> args = {
      self, "--child=" + config.workload,
      "--seed=" + std::to_string(config.seed),
      std::string("--scale=") + scaleName(config.scale),
      std::string("--traced=") + (config.traced ? "1" : "0")};
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  RepOutcome outcome;
  outcome.traced = config.traced;
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  const double start = nowSeconds();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(self.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string output;
  char chunk[4096];
  ssize_t n;
  while ((n = read(fds[0], chunk, sizeof(chunk))) != 0) {
    if (n > 0) output.append(chunk, static_cast<std::size_t>(n));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  outcome.turnaround = nowSeconds() - start;
  // ru_maxrss is KiB on Linux and covers the child's reaped descendants
  // (the service daemon and its workers).
  outcome.peakRssMib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  outcome.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;

  std::istringstream lines(output);
  std::string kind;
  std::string name;
  while (lines >> kind) {
    double value = 0.0;
    if (kind == "digest") {
      lines >> outcome.report.digest;
    } else if (kind == "turnaround" && lines >> value) {
      outcome.report.turnarounds.push_back(value);
    } else if (kind == "value" && lines >> name >> value) {
      outcome.values[name] = value;
    } else {
      outcome.ok = false;
      break;
    }
  }
  if (outcome.report.digest.empty()) outcome.ok = false;
  return outcome;
}

/// Committed digests: `workload scale seed digest` per line.
std::map<std::string, std::string> loadExpectedDigests() {
  std::map<std::string, std::string> digests;
  std::ifstream in(HDTN_BENCH_DIGESTS);
  if (!in) {
    std::fprintf(stderr, "hdtn_bench: warning: %s missing; checking "
                         "repetitions against the first one only\n",
                 HDTN_BENCH_DIGESTS);
    return digests;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, scale, seed, digest;
    if (fields >> workload >> scale >> seed >> digest) {
      digests[workload + " " + scale + " " + seed] = digest;
    }
  }
  return digests;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct WorkloadResult {
  std::string workload;
  int reps = 0;
  int tracedReps = 0;
  std::string digest;
  std::string digestSource;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct Options {
  std::uint64_t seed = 1;
  Scale scale = Scale::kFull;
  int reps = 0;
  double seconds = 0.0;
  bool trace = false;
};

WorkloadResult runWorkload(const std::string& self, const std::string& exeDir,
                           const std::string& workload, const Options& options,
                           const std::map<std::string, std::string>& expected) {
  const int minReps = options.reps > 0     ? options.reps
                      : options.seconds > 0 ? (options.trace ? 2 : 1)
                                            : defaultReps(workload);
  std::vector<RepOutcome> outcomes;
  const double start = nowSeconds();
  for (int i = 0;; ++i) {
    RepConfig config;
    config.workload = workload;
    config.seed = options.seed;
    config.scale = options.scale;
    config.traced = options.trace && i % 2 == 1;
    config.exeDir = exeDir;
    outcomes.push_back(spawnRepetition(self, config));
    std::fprintf(stderr, "%s: repetition %d%s %.2f s\n", workload.c_str(),
                 i + 1, config.traced ? " (traced)" : "",
                 outcomes.back().turnaround);
    if (i + 1 < minReps) continue;
    // Start another repetition only while it is expected to fit the box.
    if (options.seconds <= 0.0 ||
        nowSeconds() - start + outcomes.back().turnaround > options.seconds) {
      break;
    }
  }

  WorkloadResult result;
  result.workload = workload;
  result.reps = static_cast<int>(outcomes.size());
  const std::string key = workload + " " + scaleName(options.scale) + " " +
                          std::to_string(options.seed);
  const auto committed = expected.find(key);
  result.digestSource = committed != expected.end() ? "committed" : "first-rep";
  for (const RepOutcome& rep : outcomes) {
    if (result.digest.empty() && rep.ok) result.digest = rep.report.digest;
  }
  if (committed != expected.end()) result.digest = committed->second;

  const bool service = workload == "service-grid";
  std::vector<double> setup, wall, throughput, rss, perNode, jobsPerHour,
      turnaround, tracedWall;
  std::map<std::string, std::vector<double>> layers;
  const RepOutcome* reference = nullptr;
  for (const RepOutcome& rep : outcomes) {
    const auto value = [&](const char* name) {
      const auto it = rep.values.find(name);
      return it == rep.values.end() ? 0.0 : it->second;
    };
    // A service repetition that died before reporting counts as one job.
    const double jobs = service ? std::max(1.0, value("jobs")) : 1.0;
    result.attempted += static_cast<std::uint64_t>(jobs);
    const bool repOk = rep.ok && rep.report.digest == result.digest;
    if (!repOk) {
      std::fprintf(stderr, "%s: repetition failed (exit ok: %d, digest %s)\n",
                   workload.c_str(), rep.ok ? 1 : 0,
                   rep.report.digest.c_str());
      result.failed += static_cast<std::uint64_t>(jobs);
      continue;
    }
    result.failed += static_cast<std::uint64_t>(value("jobs_failed"));
    if (reference == nullptr) reference = &rep;
    if (rep.traced) {
      ++result.tracedReps;
      tracedWall.push_back(value("wall_s"));
      for (const auto& [name, v] : rep.values) layers[name].push_back(v);
      continue;
    }
    setup.push_back(value("setup_s"));
    wall.push_back(value("wall_s"));
    throughput.push_back(value("contacts") / value("wall_s"));
    rss.push_back(rep.peakRssMib);
    perNode.push_back(rep.peakRssMib * 1024.0 / value("nodes"));
    if (service) {
      jobsPerHour.push_back(jobs * 3600.0 / value("wall_s"));
      turnaround.insert(turnaround.end(), rep.report.turnarounds.begin(),
                        rep.report.turnarounds.end());
    } else {
      turnaround.push_back(rep.turnaround);
    }
  }
  if (!service && !turnaround.empty()) {
    jobsPerHour.push_back(3600.0 / median(turnaround));
  }

  const auto at = [&](const char* name) {
    if (reference == nullptr) return 0.0;
    const auto it = reference->values.find(name);
    return it == reference->values.end() ? 0.0 : it->second;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = layers.find(spec.name);
      double value = it == layers.end() ? 0.0 : median(it->second);
      if (std::string(spec.name) == "obs.tracing_overhead_ratio") {
        value = wall.empty() ? 0.0 : median(tracedWall) / median(wall);
      }
      result.metrics.push_back({spec.name, spec.unit, value});
    }
  }
  if (!options.trace || options.scale == Scale::kSmoke) {
    const double values[] = {median(setup),
                             median(wall),
                             median(throughput),
                             median(rss),
                             median(perNode),
                             at("file_ratio"),
                             at("metadata_ratio"),
                             median(jobsPerHour),
                             percentile(turnaround, 50),
                             percentile(turnaround, 70)};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      // Schema check: a zero end-to-end metric means the workload did not
      // run.
      if (!(values[i] > 0.0)) result.correct = false;
      result.metrics.push_back(
          {kEndToEnd[i].name, kEndToEnd[i].unit, values[i]});
    }
  }
  for (const Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) result.correct = false;
  }
  if (result.failed > 0 || reference == nullptr ||
      (options.trace && result.tracedReps == 0)) {
    result.correct = false;
  }
  return result;
}

std::string metricsJson(const WorkloadResult& result) {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    std::snprintf(number, sizeof(number), "%.17g", metric.value);
    out += std::string(i == 0 ? "" : ", ") + "\"" + metric.name +
           "\": {\"value\": " + number + ", \"unit\": \"" + metric.unit +
           "\"}";
  }
  return out + "}";
}

std::string summaryJson(const WorkloadResult& result) {
  return std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": " + metricsJson(result) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.helpRequested()) return usage();
  Options options;
  options.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const std::string child = args.getString("child", "");
  const std::string exeDir =
      std::filesystem::path(selfExecutable()).parent_path().string();
  if (!child.empty()) {
    RepConfig config;
    config.workload = child;
    config.seed = options.seed;
    config.scale = args.getString("scale", "full") == "smoke" ? Scale::kSmoke
                                                               : Scale::kFull;
    config.traced = args.getInt("traced", 0) != 0;
    config.exeDir = exeDir;
    if (!args.ok("hdtn_bench")) return 2;
    return runChild(config);
  }

  const std::string only = args.getString("workload", "");
  options.reps = static_cast<int>(args.getInt("reps", 0));
  options.seconds = args.getDouble("seconds", 0.0);
  options.trace = args.getBool("trace", false);
  const bool smoke = args.getBool("smoke", false);
  const std::string jsonPath = args.getString("json", "");
  if (!args.ok("hdtn_bench")) return 2;
  if (options.seed < 1) {
    std::fprintf(stderr, "hdtn_bench: --seed must be at least 1\n");
    return 2;
  }
  if (smoke) {
    options.scale = Scale::kSmoke;
    options.trace = true;
    options.reps = 2;
    options.seconds = 0.0;
  }
  std::vector<std::string> workloads = kWorkloads;
  if (!only.empty()) {
    if (std::find(workloads.begin(), workloads.end(), only) ==
        workloads.end()) {
      std::fprintf(stderr, "hdtn_bench: unknown workload '%s'\n", only.c_str());
      return usage();
    }
    workloads = {only};
  }

  const std::string self = selfExecutable();
  const std::string stateDir = exeDir + "/state";
  std::filesystem::remove_all(stateDir);
  makeDirs(stateDir);
  makeDirs(exeDir + "/out");
  const std::map<std::string, std::string> expected = loadExpectedDigests();

  std::vector<WorkloadResult> results;
  for (const std::string& workload : workloads) {
    results.push_back(runWorkload(self, exeDir, workload, options, expected));
    const WorkloadResult& r = results.back();
    std::printf("%s reps %d (%d traced)\n", workload.c_str(), r.reps,
                r.tracedReps);
    std::printf("%s digest %s (%s)\n", workload.c_str(), r.digest.c_str(),
                r.digestSource.c_str());
    for (const Metric& metric : r.metrics) {
      std::printf("%s %s %.6g %s\n", workload.c_str(), metric.name.c_str(),
                  metric.value, metric.unit.c_str());
    }
    std::printf("%s\n", summaryJson(r).c_str());
    std::fflush(stdout);
  }

  bool correct = true;
  for (const WorkloadResult& r : results) correct = correct && r.correct;
  if (!jsonPath.empty()) {
    std::ofstream out(jsonPath);
    out << "{\"environment\": " << environmentJson(stateDir, options.seed)
        << ",\n \"scale\": \"" << scaleName(options.scale)
        << "\", \"trace\": " << (options.trace ? "true" : "false")
        << ",\n \"results\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const WorkloadResult& r = results[i];
      out << (i == 0 ? "\n  " : ",\n  ") << "{\"workload\": \"" << r.workload
          << "\", \"reps\": " << r.reps << ", \"traced_reps\": " << r.tracedReps
          << ", \"digest\": \"" << r.digest << "\", \"digest_source\": \""
          << r.digestSource << "\", \"summary\": " << summaryJson(r) << "}";
    }
    out << "\n]}\n";
    if (!out) {
      std::fprintf(stderr, "hdtn_bench: cannot write %s\n", jsonPath.c_str());
      correct = false;
    }
  }
  return correct ? 0 : 1;
}
