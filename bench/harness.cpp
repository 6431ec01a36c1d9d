#include "bench/harness.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string_view>

#include "bench/supervisor.hpp"
#include "src/core/protocol.hpp"
#include "src/core/scenario.hpp"
#include "src/obs/timeseries.hpp"
#include "src/trace/dieselnet.hpp"
#include "src/trace/nus.hpp"
#include "src/trace/trace_stats.hpp"
#include "src/util/ascii_chart.hpp"
#include "src/util/csv.hpp"
#include "src/util/parallel.hpp"
#include "src/util/string_util.hpp"

namespace hdtn::bench {

using core::EngineParams;
using core::EngineResult;
using core::ProtocolKind;

namespace {

constexpr ProtocolKind kProtocols[] = {
    ProtocolKind::kMbt, ProtocolKind::kMbtQ, ProtocolKind::kMbtQm};

/// "x0.35"-style suffix for time-series file names.
std::string formatX(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", x);
  return buf;
}

/// Engine parameters for one sweep point, exactly as the in-process task
/// loop builds them — the supervised child must reproduce them bit for bit.
EngineParams paramsForPoint(const FigureSpec& spec, std::size_t xi,
                            std::size_t pi, int seed) {
  EngineParams params = spec.base;
  params.protocol.kind = kProtocols[pi];
  params.seed = static_cast<std::uint64_t>(seed) * 1000003u;
  spec.apply(params, spec.xs[xi]);
  return params;
}

/// Child mode (--point=KEY): runs exactly one (x, protocol, seed) point —
/// with periodic checkpoints when --point-checkpoint was given — and prints
/// its RESULT line for the supervising parent.
int runFigurePoint(const FigureSpec& spec, const CommonArgs& common) {
  const auto point = parsePointKey(common.pointKey, spec.id,
                                   {{"xi", spec.xs.size()}, {"pi", 3}});
  if (!point) return 2;
  const std::size_t xi = (*point)[0];
  const std::size_t pi = (*point)[1];
  const auto seed = static_cast<int>((*point)[2]);
  const trace::ContactTrace trace =
      spec.makeTrace(spec.xs[xi], static_cast<std::uint64_t>(seed));
  const EngineResult result =
      runWithCheckpoints(trace, paramsForPoint(spec, xi, pi, seed),
                         common.pointCheckpoint, common.checkpointEvery);
  std::cout << formatResultLine(
      common.pointKey,
      {result.delivery.metadataRatio, result.delivery.fileRatio});
  return 0;
}

}  // namespace

CommonArgs parseCommonArgs(const std::string& figureId, int defaultSeeds,
                           int argc, char** argv) {
  CommonArgs out;
  out.seeds = defaultSeeds;
  if (const char* env = std::getenv("HDTN_SEEDS")) {
    out.seeds = std::max(1, std::atoi(env));
  }
  out.threads = defaultThreadCount();
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (hdtn::startsWith(arg, "--seeds=")) {
      out.seeds = std::max(1, std::atoi(arg.substr(8).data()));
    } else if (hdtn::startsWith(arg, "--threads=")) {
      out.threads = static_cast<unsigned>(
          std::max(1, std::atoi(arg.substr(10).data())));
    } else if (arg == "--json") {
      out.jsonPath = "BENCH_" + figureId + ".json";
    } else if (hdtn::startsWith(arg, "--json=")) {
      out.jsonPath = std::string(arg.substr(7));
    } else if (arg == "--timeseries") {
      out.timeseriesDir = ".";
    } else if (hdtn::startsWith(arg, "--timeseries=")) {
      out.timeseriesDir = std::string(arg.substr(13));
    } else if (hdtn::startsWith(arg, "--sample-every=")) {
      out.sampleEvery =
          std::max<Duration>(1, std::atoll(arg.substr(15).data()));
    } else if (hdtn::startsWith(arg, "--scenario=")) {
      out.scenarioPath = std::string(arg.substr(11));
    } else if (arg == "--supervise") {
      out.superviseJournal = "BENCH_" + figureId + ".journal";
    } else if (hdtn::startsWith(arg, "--supervise=")) {
      out.superviseJournal = std::string(arg.substr(12));
    } else if (hdtn::startsWith(arg, "--point-timeout=")) {
      out.pointTimeoutSeconds =
          std::max(0.1, std::atof(arg.substr(16).data()));
    } else if (hdtn::startsWith(arg, "--max-attempts=")) {
      out.maxAttempts = std::max(1, std::atoi(arg.substr(15).data()));
    } else if (hdtn::startsWith(arg, "--checkpoint-every=")) {
      out.checkpointEvery =
          std::max<Duration>(1, std::atoll(arg.substr(19).data()));
    } else if (hdtn::startsWith(arg, "--point=")) {
      out.pointKey = std::string(arg.substr(8));
    } else if (hdtn::startsWith(arg, "--point-checkpoint=")) {
      out.pointCheckpoint = std::string(arg.substr(19));
    }
  }
  return out;
}

trace::ContactTrace defaultDieselNet(std::uint64_t seed) {
  trace::DieselNetParams params;
  params.buses = 40;
  params.routes = 8;
  params.days = 20;
  // Thinner than the generator defaults so the delivery curves stay in the
  // informative (unsaturated) range across the sweeps.
  params.sameRouteMeetingsPerDay = 1.4;
  params.connectedRouteMeetingsPerDay = 0.5;
  params.backgroundMeetingsPerDay = 0.03;
  params.seed = seed;
  return trace::generateDieselNet(params);
}

trace::ContactTrace defaultNus(std::uint64_t seed, double attendanceRate) {
  trace::NusParams params;
  params.students = 160;
  params.courses = 32;
  params.coursesPerStudent = 4;
  params.days = 12;
  params.attendanceRate = attendanceRate;
  params.seed = seed;
  return trace::generateNus(params);
}

EngineParams dieselNetBaseParams() {
  EngineParams p;
  p.frequentContactPeriod = trace::kDieselNetFrequentPeriod;
  return p;
}

EngineParams nusBaseParams() {
  EngineParams p;
  p.frequentContactPeriod = trace::kNusFrequentPeriod;
  return p;
}

std::vector<double> accessFractionSweep() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

int runFigure(FigureSpec spec, int argc, char** argv) {
  const CommonArgs common = parseCommonArgs(spec.id, spec.seeds, argc, argv);
  if (!common.scenarioPath.empty()) {
    std::vector<std::string> errors;
    const auto scenario = core::Scenario::fromFile(common.scenarioPath,
                                                   &errors);
    if (!scenario) {
      for (const std::string& error : errors) {
        std::cerr << common.scenarioPath << ": " << error << "\n";
      }
      return 2;
    }
    spec.base = scenario->params;
    std::cout << "scenario: " << scenario->name << " ("
              << common.scenarioPath << ")\n";
  }
  if (!common.pointKey.empty()) return runFigurePoint(spec, common);
  const bool supervised = !common.superviseJournal.empty();
  const int seeds = common.seeds;
  const unsigned threads = common.threads;
  const std::string& jsonPath = common.jsonPath;
  const bool wantTimeseries = !common.timeseriesDir.empty();
  std::cout << "=== " << spec.id << ": " << spec.title << " ===\n"
            << "x-axis: " << spec.xLabel << "; " << seeds
            << " seed(s) per point; protocols: MBT, MBT-Q, MBT-QM; "
            << threads << " thread(s)\n\n";

  const auto startedAt = std::chrono::steady_clock::now();

  const std::size_t points = spec.xs.size();
  std::vector<double> mdRatio(points * 3 * static_cast<std::size_t>(seeds));
  std::vector<double> fileRatio(mdRatio.size());
  std::vector<obs::TimeSeries> tsSlots(
      wantTimeseries && !supervised ? points * 3 : 0);
  if (supervised) {
    // Every point runs in a child process (crash/timeout isolation); the
    // children generate their own traces, so nothing is materialized here.
    if (wantTimeseries) {
      std::cout << "--timeseries is not supported under --supervise; "
                   "skipping time-series output\n";
    }
    // Every point runs in a child process under a timeout with
    // retry-with-resume; completed points stay done in the sweep's queue
    // and are skipped on re-invocation.
    const bool ok = runSupervisedSweep(
        common, argv[0], spec.id, {{"xi", points}, {"pi", 3}}, seeds, 2,
        [&](std::size_t task, const std::vector<double>& values) {
          mdRatio[task] = values[0];
          fileRatio[task] = values[1];
        });
    if (!ok) return 1;
  } else {
  // Traces are shared read-only across simulation tasks, so they are
  // materialized first (in parallel — generation is itself a measurable
  // slice of the wall clock), keyed by (seed, x-if-relevant).
  std::map<std::pair<int, int>, trace::ContactTrace> traceCache;
  for (int seed = 1; seed <= seeds; ++seed) {
    if (spec.traceDependsOnX) {
      for (std::size_t xi = 0; xi < spec.xs.size(); ++xi) {
        traceCache.try_emplace({seed, static_cast<int>(xi)});
      }
    } else {
      traceCache.try_emplace({seed, -1});
    }
  }
  {
    std::vector<std::map<std::pair<int, int>,
                         trace::ContactTrace>::iterator> slots;
    for (auto it = traceCache.begin(); it != traceCache.end(); ++it) {
      slots.push_back(it);
    }
    parallelFor(slots.size(), threads, [&](std::size_t i) {
      const auto [seed, xKey] = slots[i]->first;
      const double x = xKey < 0 ? spec.xs.front()
                                : spec.xs[static_cast<std::size_t>(xKey)];
      slots[i]->second =
          spec.makeTrace(x, static_cast<std::uint64_t>(seed));
    });
  }
  const auto traceFor = [&](std::size_t xi,
                            int seed) -> const trace::ContactTrace& {
    const int xKey = spec.traceDependsOnX ? static_cast<int>(xi) : -1;
    return traceCache.at({seed, xKey});
  };

  // One task per (x, protocol, seed); every task writes its own slot, so the
  // report below is identical for any thread count. Under --timeseries the
  // seed-1 run of each point goes through the sampled stepper instead — the
  // final result is byte-identical to runSimulation, so the averages are
  // unchanged — and its samples land in a per-point slot.
  parallelFor(mdRatio.size(), threads, [&](std::size_t task) {
    const std::size_t xi = task / (3 * static_cast<std::size_t>(seeds));
    const std::size_t rest = task % (3 * static_cast<std::size_t>(seeds));
    const std::size_t pi = rest / static_cast<std::size_t>(seeds);
    const int seed = static_cast<int>(rest % static_cast<std::size_t>(seeds)) + 1;
    const EngineParams params = paramsForPoint(spec, xi, pi, seed);
    EngineResult result;
    if (wantTimeseries && seed == 1) {
      core::Engine engine(traceFor(xi, seed), params);
      result = obs::runSampled(engine, common.sampleEvery,
                               tsSlots[xi * 3 + pi]);
    } else {
      result = core::runSimulation(traceFor(xi, seed), params);
    }
    mdRatio[task] = result.delivery.metadataRatio;
    fileRatio[task] = result.delivery.fileRatio;
  });
  }  // !supervised

  if (wantTimeseries && !supervised) {
    std::error_code ec;
    std::filesystem::create_directories(common.timeseriesDir, ec);
    for (std::size_t xi = 0; xi < points; ++xi) {
      for (std::size_t pi = 0; pi < 3; ++pi) {
        const std::filesystem::path path =
            std::filesystem::path(common.timeseriesDir) /
            ("TS_" + spec.id + "_" +
             std::string(core::protocolName(kProtocols[pi])) + "_x" +
             formatX(spec.xs[xi]) + ".csv");
        std::ofstream csv(path);
        if (!csv) {
          std::cerr << "cannot write " << path.string() << "\n";
          return 1;
        }
        tsSlots[xi * 3 + pi].writeCsv(csv);
      }
    }
    std::cout << "time series (" << points * 3 << " files, seed 1, every "
              << common.sampleEvery << " s) written to "
              << common.timeseriesDir << "\n\n";
  }

  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    startedAt)
          .count();

  // series[protocol] -> per-x mean ratios.
  std::vector<std::vector<double>> metadataSeries(3), fileSeries(3);
  Table table({spec.xLabel, "MBT md", "MBT-Q md", "MBT-QM md", "MBT file",
               "MBT-Q file", "MBT-QM file"});
  for (std::size_t xi = 0; xi < points; ++xi) {
    std::vector<double> mdMeans(3, 0.0), fileMeans(3, 0.0);
    for (std::size_t pi = 0; pi < 3; ++pi) {
      double mdSum = 0.0, fileSum = 0.0;
      for (int seed = 1; seed <= seeds; ++seed) {
        const std::size_t task =
            (xi * 3 + pi) * static_cast<std::size_t>(seeds) +
            static_cast<std::size_t>(seed - 1);
        mdSum += mdRatio[task];
        fileSum += fileRatio[task];
      }
      mdMeans[pi] = mdSum / seeds;
      fileMeans[pi] = fileSum / seeds;
      metadataSeries[pi].push_back(mdMeans[pi]);
      fileSeries[pi].push_back(fileMeans[pi]);
    }
    table.addRow({spec.xs[xi], mdMeans[0], mdMeans[1], mdMeans[2],
                  fileMeans[0], fileMeans[1], fileMeans[2]});
  }

  table.writeAligned(std::cout);
  std::cout << "\nCSV:\n";
  table.writeCsv(std::cout);
  std::cout << "\n";

  const char glyphs[3] = {'*', 'o', '.'};
  AsciiChart mdChart(spec.id + ": metadata delivery ratio vs " + spec.xLabel,
                     spec.xs);
  AsciiChart fileChart(spec.id + ": file delivery ratio vs " + spec.xLabel,
                       spec.xs);
  for (std::size_t pi = 0; pi < 3; ++pi) {
    const char* name = core::protocolName(kProtocols[pi]);
    mdChart.addSeries({name, glyphs[pi], metadataSeries[pi]});
    fileChart.addSeries({name, glyphs[pi], fileSeries[pi]});
  }
  std::cout << mdChart.render() << "\n" << fileChart.render() << std::endl;
  std::cout << "wall-clock: " << wallSeconds << " s (" << threads
            << " thread(s), " << seeds << " seed(s))" << std::endl;

  if (!jsonPath.empty()) {
    std::ofstream json(jsonPath);
    if (!json) {
      std::cerr << "cannot write " << jsonPath << "\n";
      return 1;
    }
    json << "{\n"
         << "  \"figure\": \"" << spec.id << "\",\n"
         << "  \"title\": \"" << spec.title << "\",\n"
         << "  \"x_label\": \"" << spec.xLabel << "\",\n"
         << "  \"seeds\": " << seeds << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"wall_seconds\": " << wallSeconds << ",\n"
         << "  \"series\": [\n";
    for (std::size_t pi = 0; pi < 3; ++pi) {
      json << "    {\"protocol\": \"" << core::protocolName(kProtocols[pi])
           << "\", \"points\": [";
      for (std::size_t xi = 0; xi < points; ++xi) {
        json << (xi == 0 ? "" : ", ") << "{\"x\": " << spec.xs[xi]
             << ", \"metadata_ratio\": " << metadataSeries[pi][xi]
             << ", \"file_ratio\": " << fileSeries[pi][xi] << "}";
      }
      json << "]}" << (pi + 1 < 3 ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "json written to " << jsonPath << std::endl;
  }
  return 0;
}

}  // namespace hdtn::bench
