// hdtn_sim — run the cooperative file-sharing simulation.
//
//   hdtn_tracegen --family=nus --out=nus.trace
//   hdtn_sim --trace=nus.trace --protocol=mbt --access=0.3 ...
//       --files-per-day=40 --ttl-days=3
//   hdtn_sim --scenario=examples/nus_paper.scenario --seed=7
//
// The run is configured by a core::Scenario: either built from the command
// line alone, or loaded from a scenario file (--scenario) with every other
// flag applied on top as an override. Scenario keys and flag names are
// identical (see docs/FAULTS.md for the file format).
//
// Prints the delivery report; --csv emits a single machine-readable row.
// --events-out writes a JSONL event trace and --timeseries-out a sampled
// delivery/totals CSV (see docs/OBSERVABILITY.md).
//
// `hdtn_sim --serve --state-dir=DIR` instead runs the resident sweep
// service: a daemon that accepts scenario jobs over a Unix socket (see
// hdtn_sweepctl and docs/SERVICE.md) and executes them in worker
// subprocesses — which are this same binary, run with --scenario. A worker
// that receives SIGTERM saves a checkpoint at the next boundary and exits
// with code 75, so the service can preempt and later resume it.
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/core/download_planner.hpp"
#include "src/core/scenario.hpp"
#include "src/core/sharded_engine.hpp"
#include "src/service/daemon.hpp"
#include "src/service/exec.hpp"
#include "src/trace/contact_trace.hpp"
#include "src/util/args.hpp"

using namespace hdtn;

namespace {

int usage() {
  // Every scenario key is a flag; its help line comes from the parameter
  // table. The flags around it belong to this tool alone.
  std::vector<FlagHelp> flags = {
      {"scenario=PATH", "load a key = value scenario file first"}};
  const std::vector<FlagHelp>& keys = core::Scenario::keyHelp();
  flags.insert(flags.end(), keys.begin(), keys.end());
  flags.insert(flags.end(), {
      {"shards=0", "run sharded: component scheduling groups (0 = classic)"},
      {"threads=1", "sharded: worker threads (0 = hardware concurrency)"},
      {"csv", "one CSV row instead of the report"},
      {"serve", "run the sweep service instead (docs/SERVICE.md)"},
      {"state-dir=DIR", "serve: queue + job state directory (required)"},
      {"socket=PATH", "serve: control socket (default DIR/daemon.sock)"},
      {"workers=2", "serve: worker subprocess slots"},
      {"max-queue=256", "serve: backpressure depth; submissions past it shed"},
      {"job-timeout=600", "serve: wall-clock seconds per attempt"},
      {"max-attempts=3", "serve: attempts per job"},
      {"grace=5", "serve: seconds between SIGTERM and SIGKILL"},
      {"wal-max-bytes=1048576", "serve: queue WAL size before compaction"},
      {"job-checkpoint-every=21600",
       "serve: checkpoint cadence injected into jobs, sim seconds"},
  });
  std::fputs(formatUsage("hdtn_sim --trace=PATH|--scenario=PATH [options]",
                         flags)
                 .c_str(),
             stderr);
  return 2;
}

/// True when numeric flag `name`'s value lies in [lo, hi]; otherwise prints
/// an error that names the flag. Checked before the value is cast to its
/// setting's type, where a negative count would wrap to a huge one.
template <class T>
bool inRange(const ArgParser& args, const char* name, T value, T lo, T hi,
             const char* expected) {
  if (value >= lo && value <= hi) return true;
  std::fprintf(stderr, "error: --%s must be %s, got '%s'\n", name, expected,
               args.getString(name, "").c_str());
  return false;
}

constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();
/// The least positive double: [kLeastPositive, inf] holds every positive
/// duration.
constexpr double kLeastPositive = std::numeric_limits<double>::denorm_min();

/// Flag-style spelling (the CSV row's protocol column, stable since v0).
const char* protocolFlagName(core::ProtocolKind kind) {
  switch (kind) {
    case core::ProtocolKind::kMbt: return "mbt";
    case core::ProtocolKind::kMbtQ: return "mbt-q";
    case core::ProtocolKind::kMbtQm: return "mbt-qm";
  }
  return "mbt";
}

// --- worker preemption ------------------------------------------------
// The service stops a worker with SIGTERM; the handler sets this flag and
// runScenario saves a checkpoint at the next boundary (scenario.cpp).
volatile std::sig_atomic_t g_preemptRequested = 0;

void onWorkerSigterm(int) { g_preemptRequested = 1; }

// --- service mode -----------------------------------------------------
service::Daemon* g_daemon = nullptr;

void onDaemonSignal(int) {
  if (g_daemon != nullptr) g_daemon->requestShutdown();
}

/// The worker binary the daemon launches is this very executable.
std::string selfExecutable(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

int runServe(ArgParser& args, const char* argv0) {
  service::DaemonConfig config;
  config.stateDir = args.getString("state-dir", "");
  config.socketPath =
      args.getString("socket", config.stateDir + "/daemon.sock");
  config.workerExe = selfExecutable(argv0);
  const std::int64_t workers = args.getInt("workers", 2);
  const std::int64_t maxQueue = args.getInt("max-queue", 256);
  const std::int64_t walMaxBytes = args.getInt("wal-max-bytes", 1 << 20);
  config.jobTimeoutSeconds = args.getDouble("job-timeout", 600.0);
  const std::int64_t maxAttempts = args.getInt("max-attempts", 3);
  config.graceSeconds = args.getDouble("grace", 5.0);
  config.checkpointEverySimSeconds =
      args.getInt("job-checkpoint-every", 21600);
  if (!args.ok("hdtn_sim")) return 2;
  if (config.stateDir.empty()) {
    std::fprintf(stderr, "error: --serve requires --state-dir=DIR\n");
    return 2;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool valid = inRange<std::int64_t>(args, "workers", workers, 1, kMaxInt64,
                                     "at least 1");
  valid &= inRange<std::int64_t>(args, "max-queue", maxQueue, 0, kMaxInt64,
                                 "at least 0");
  valid &= inRange<std::int64_t>(args, "wal-max-bytes", walMaxBytes, 0,
                                 kMaxInt64, "at least 0");
  valid &= inRange(args, "job-timeout", config.jobTimeoutSeconds,
                   kLeastPositive, kInf, "positive");
  valid &= inRange<std::int64_t>(args, "max-attempts", maxAttempts, 1,
                                 std::numeric_limits<int>::max(),
                                 "in [1, 2147483647]");
  valid &= inRange(args, "grace", config.graceSeconds, kLeastPositive, kInf,
                   "positive");
  valid &= inRange<std::int64_t>(args, "job-checkpoint-every",
                                 config.checkpointEverySimSeconds, 1,
                                 kMaxInt64, "positive");
  if (!valid) return 2;
  config.workers = static_cast<std::size_t>(workers);
  config.queueLimits.maxDepth = static_cast<std::size_t>(maxQueue);
  config.queueLimits.maxWalBytes = static_cast<std::uint64_t>(walMaxBytes);
  config.retry.maxAttempts = static_cast<int>(maxAttempts);

  service::Daemon daemon(std::move(config));
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_daemon = &daemon;
  std::signal(SIGTERM, onDaemonSignal);
  std::signal(SIGINT, onDaemonSignal);
  std::fprintf(stderr, "serving on %s (state in %s, %zu workers)\n",
               daemon.config().socketPath.c_str(),
               daemon.config().stateDir.c_str(), daemon.config().workers);
  daemon.runLoop();
  g_daemon = nullptr;
  std::fprintf(stderr, "service stopped; queue persisted\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.helpRequested()) return usage();
  if (args.getBool("serve", false)) return runServe(args, argv[0]);

  core::Scenario scenario;
  const std::string scenarioPath = args.getString("scenario", "");
  if (!scenarioPath.empty()) {
    std::vector<std::string> fileErrors;
    const auto loaded = core::Scenario::fromFile(scenarioPath, &fileErrors);
    if (!loaded) {
      for (const std::string& error : fileErrors) {
        std::fprintf(stderr, "error: %s: %s\n", scenarioPath.c_str(),
                     error.c_str());
      }
      return 2;
    }
    scenario = *loaded;
  }

  // Every scenario key doubles as a flag; flags override the file.
  for (const std::string& key : core::Scenario::knownKeys()) {
    if (!args.has(key)) continue;
    const std::string error = scenario.apply(key, args.getString(key, ""));
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }
  const bool csv = args.getBool("csv", false);
  const std::int64_t shards = args.getInt("shards", 0);
  const std::int64_t threads = args.getInt("threads", 1);
  if (!args.ok("hdtn_sim")) return 2;
  bool valid = inRange<std::int64_t>(args, "shards", shards, 0,
                                     std::numeric_limits<std::uint32_t>::max(),
                                     "in [0, 4294967295]");
  valid &= inRange<std::int64_t>(args, "threads", threads, 0,
                                 std::numeric_limits<unsigned>::max(),
                                 "in [0, 4294967295]");
  if (!valid) return 2;

  if (scenarioPath.empty() && scenario.trace.family == "file" &&
      scenario.trace.path.empty()) {
    return usage();
  }
  const auto scenarioErrors = scenario.validate();
  for (const auto& error : scenarioErrors) {
    std::fprintf(stderr, "error: invalid parameters: %s\n", error.c_str());
  }
  if (!scenarioErrors.empty()) return 2;

  std::string error;
  const auto trace = scenario.trace.build(&error);
  if (!trace) {
    // A trace that cannot be built (missing file, bad generator knobs) is a
    // deterministic input error, not a transient one: exit 2 like the other
    // validation failures so a supervisor fails fast instead of retrying.
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  core::EngineResult result;
  if (shards > 0) {
    // Sharded path: one engine per contact-connected component, stepped on
    // a worker pool. Results are byte-identical at every shards/threads
    // setting (docs/SCALING.md); the per-engine observability sinks are not
    // wired through it.
    if (!scenario.eventsOut.empty() || !scenario.timeseriesOut.empty() ||
        !scenario.checkpointOut.empty()) {
      std::fprintf(stderr,
                   "error: --shards does not support --events-out, "
                   "--timeseries-out, or --checkpoint-out\n");
      return 2;
    }
    core::ShardedParams sharded;
    sharded.engine = scenario.params;
    sharded.shards = static_cast<std::uint32_t>(shards);
    sharded.threads = static_cast<unsigned>(threads);
    try {
      core::ShardedEngine engine(*trace, sharded);
      std::fprintf(stderr, "sharded: %zu components in %zu groups\n",
                   engine.componentCount(), engine.shardCount());
      result = engine.run();
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  } else {
    if (!scenario.checkpointOut.empty()) {
      // Cooperative preemption for checkpointing runs: SIGTERM asks the
      // engine to save state at the next boundary and stop.
      core::setScenarioStopFlag(&g_preemptRequested);
      std::signal(SIGTERM, onWorkerSigterm);
    }
    const auto outcome = core::runScenario(scenario, *trace, &error);
    if (!outcome) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    if (outcome->preempted) {
      std::fprintf(stderr, "preempted: checkpoint saved to %s\n",
                   scenario.checkpointOut.c_str());
      return service::kPreemptedExitCode;
    }
    result = outcome->result;
    if (outcome->resumed) {
      std::fprintf(stderr, "resumed from checkpoint %s\n",
                   scenario.checkpointOut.c_str());
    }
    if (!scenario.eventsOut.empty()) {
      std::fprintf(stderr, "events: %llu written to %s\n",
                   static_cast<unsigned long long>(outcome->eventsWritten),
                   scenario.eventsOut.c_str());
    }
  }

  if (csv) {
    std::printf(
        "protocol,access,metadata_ratio,file_ratio,mean_md_delay_s,"
        "mean_file_delay_s,queries,contacts\n");
    std::printf("%s,%.3f,%.4f,%.4f,%.1f,%.1f,%zu,%llu\n",
                protocolFlagName(scenario.params.protocol.kind),
                scenario.params.internetAccessFraction,
                result.delivery.metadataRatio, result.delivery.fileRatio,
                result.delivery.meanMetadataDelaySeconds,
                result.delivery.meanFileDelaySeconds,
                result.delivery.queries,
                static_cast<unsigned long long>(
                    result.totals.contactsProcessed));
    return 0;
  }

  const std::string traceLabel = scenario.trace.family == "file"
                                     ? scenario.trace.path
                                     : scenario.trace.family;
  std::printf("trace: %s (%zu nodes, %zu contacts)\n", traceLabel.c_str(),
              trace->nodeCount(), trace->contactCount());
  std::printf("protocol: %s (%s download mode)\n",
              core::protocolName(scenario.params.protocol.kind),
              core::downloadModeName(scenario.params.downloadMode,
                                     scenario.params.protocol.scheduling));
  std::printf("\nnon-access nodes (%zu queries):\n", result.delivery.queries);
  std::printf("  metadata delivery ratio: %.4f (mean delay %.1f h)\n",
              result.delivery.metadataRatio,
              result.delivery.meanMetadataDelaySeconds / 3600.0);
  std::printf("  file delivery ratio:     %.4f (mean delay %.1f h)\n",
              result.delivery.fileRatio,
              result.delivery.meanFileDelaySeconds / 3600.0);
  std::printf("\naccess nodes (%zu queries): metadata %.3f, file %.3f\n",
              result.accessDelivery.queries,
              result.accessDelivery.metadataRatio,
              result.accessDelivery.fileRatio);
  std::printf("\ntraffic: %llu metadata broadcasts, %llu piece broadcasts "
              "over %llu contacts\n",
              static_cast<unsigned long long>(
                  result.totals.metadataBroadcasts),
              static_cast<unsigned long long>(result.totals.pieceBroadcasts),
              static_cast<unsigned long long>(
                  result.totals.contactsProcessed));
  const core::EngineTotals& totals = result.totals;
  if (totals.faultMessagesDropped != 0 || totals.faultContactsTruncated != 0 ||
      totals.faultPiecesRejectedCorrupt != 0 ||
      totals.faultNodeDownIntervals != 0) {
    std::printf("faults: %llu messages lost, %llu contacts truncated, "
                "%llu pieces corrupt, %llu down intervals\n",
                static_cast<unsigned long long>(totals.faultMessagesDropped),
                static_cast<unsigned long long>(totals.faultContactsTruncated),
                static_cast<unsigned long long>(
                    totals.faultPiecesRejectedCorrupt),
                static_cast<unsigned long long>(
                    totals.faultNodeDownIntervals));
  }
  if (totals.codedBroadcasts != 0) {
    std::printf("coded: %llu frames (%llu innovative, %llu redundant), "
                "%llu generations decoded, %llu corrupt, %llu row ops\n",
                static_cast<unsigned long long>(totals.codedBroadcasts),
                static_cast<unsigned long long>(totals.codedInnovativeFrames),
                static_cast<unsigned long long>(totals.codedRedundantFrames),
                static_cast<unsigned long long>(totals.generationsDecoded),
                static_cast<unsigned long long>(totals.codedDecodeFailures),
                static_cast<unsigned long long>(totals.codedDecodeRowOps));
  }
  if (totals.recoveryRetransmits != 0 || totals.repairRequests != 0 ||
      totals.coordinatorFailovers != 0 || totals.metadataEvictions != 0) {
    std::printf("recovery: %llu retransmits (%llu recovered), %llu repair "
                "requests, %llu failovers, %llu metadata evictions\n",
                static_cast<unsigned long long>(totals.recoveryRetransmits),
                static_cast<unsigned long long>(totals.recoveryRedeliveries),
                static_cast<unsigned long long>(totals.repairRequests),
                static_cast<unsigned long long>(totals.coordinatorFailovers),
                static_cast<unsigned long long>(totals.metadataEvictions));
  }
  if (totals.adversaryAttacks != 0 || totals.nodesQuarantined != 0) {
    std::printf("adversary: %llu attacks (%llu polluted, %llu lies, "
                "%llu forged summaries, %llu spoofed acks, %llu suppressed), "
                "%llu rollbacks, %llu quarantined (%llu released)\n",
                static_cast<unsigned long long>(totals.adversaryAttacks),
                static_cast<unsigned long long>(totals.pollutionInjected),
                static_cast<unsigned long long>(totals.piecesLied),
                static_cast<unsigned long long>(totals.summariesForged),
                static_cast<unsigned long long>(totals.acksSpoofed),
                static_cast<unsigned long long>(totals.broadcastsSuppressed),
                static_cast<unsigned long long>(totals.generationsRolledBack),
                static_cast<unsigned long long>(totals.nodesQuarantined),
                static_cast<unsigned long long>(totals.nodesReleased));
  }
  return 0;
}
