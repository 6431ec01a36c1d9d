// Robustness sweep: delivery ratio AND mean file delay vs the per-message
// loss rate, for MBT / MBT-Q / MBT-QM on the NUS-style trace.
//
// The paper evaluates the protocols over clean traces; this panel asks how
// gracefully each degrades as the DTN channel gets lossy (faults are drawn
// from the deterministic fault plan, see docs/FAULTS.md). Unlike the
// figure benches this one also reports delays — under loss a protocol can
// hold its delivery ratio while its delay balloons, and the ratio alone
// would hide that.
//
// Each (loss, protocol) point runs three download configurations:
//   mi == 0  baseline — selective per-piece broadcast, no recovery
//   mi == 1  +rec     — baseline plus the PR 5 self-healing layer
//   mi == 2  +coded   — RLNC coded mode (docs/CODING.md), recovery off, so
//                       the comparison isolates redundancy vs retransmission
// Coded points additionally report decode CPU as Gauss-Jordan row
// operations (EngineTotals::codedDecodeRowOps), the codec's deterministic
// work proxy.
//
// A fourth axis (docs/ADVERSARY.md) sweeps the Byzantine fraction instead
// of the loss rate: coded mode + the recovery layer, every attack enabled,
// with the verify-and-quarantine defense off vs on. It always runs
// in-process in the parent (it is small), so supervised sweeps keep
// their 63-point layout; results land in the "adversary_series" JSON
// section.
//
//   bench_robustness [--seeds=N] [--threads=N] [--json[=PATH]]
//                    [--scenario=FILE] [--supervise[=DIR]]
//                    [--point-timeout=S] [--max-attempts=N]
//                    [--checkpoint-every=S]
//
// --scenario replaces the base engine parameters and the trace with the
// scenario's (the loss-rate sweep still overrides the scenario's own
// loss-rate); by default the run uses the shared NUS stand-in. --supervise
// runs every point in a crash-isolated child process with retry-with-resume,
// as a job in a durable queue kept in DIR (see docs/CHECKPOINT.md).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/harness.hpp"
#include "bench/supervisor.hpp"
#include "src/core/download_planner.hpp"
#include "src/core/scenario.hpp"
#include "src/util/ascii_chart.hpp"
#include "src/util/csv.hpp"
#include "src/util/parallel.hpp"

using namespace hdtn;

namespace {

constexpr core::ProtocolKind kProtocols[] = {core::ProtocolKind::kMbt,
                                             core::ProtocolKind::kMbtQ,
                                             core::ProtocolKind::kMbtQm};

constexpr std::size_t kModes = 3;
constexpr const char* kModeSuffix[kModes] = {"", "+rec", "+coded"};

/// The recovery configuration the `mi == 1` third of the sweep turns on:
/// retransmission, anti-entropy repair, and coordinator failover together
/// (the self-healing layer as a whole, not one knob at a time).
core::RecoveryParams sweepRecoveryParams() {
  core::RecoveryParams recovery;
  recovery.maxRetries = 2;
  recovery.retransmitBudget = 16;
  recovery.repairPerContact = 4;
  recovery.coordinatorFailover = true;
  return recovery;
}

/// Engine parameters for one sweep point, exactly as the in-process task
/// loop builds them — the supervised child must reproduce them bit for bit.
/// `mi` is the mode axis (0 = baseline, 1 = +recovery, 2 = coded); `seed`
/// is 1-based.
core::EngineParams paramsForPoint(const core::EngineParams& base,
                                  const std::vector<double>& lossRates,
                                  std::size_t xi, std::size_t pi,
                                  std::size_t mi, int seed) {
  core::EngineParams params = base;
  params.protocol.kind = kProtocols[pi];
  params.seed = static_cast<std::uint64_t>(seed) * 1000003u;
  params.faults.messageLossRate = lossRates[xi];
  params.recovery = mi == 1 ? sweepRecoveryParams() : core::RecoveryParams{};
  if (mi == 2) params.downloadMode = core::DownloadMode::kCoded;
  return params;
}

/// Child mode (--point=robustness:<xi>:<pi>:<mi>:<seed>): runs one point
/// with periodic checkpoints and prints its RESULT line (file ratio,
/// metadata ratio, mean file delay in hours, decode row operations).
int runPoint(const bench::CommonArgs& common, const core::EngineParams& base,
             const core::TraceSpec& traceSpec,
             const std::vector<double>& lossRates) {
  const auto point = bench::parsePointKey(
      common.pointKey, "robustness",
      {{"xi", lossRates.size()}, {"pi", 3}, {"mi", kModes}});
  if (!point) return 2;
  const std::size_t xi = (*point)[0];
  const std::size_t pi = (*point)[1];
  const std::size_t mi = (*point)[2];
  const auto seed = static_cast<int>((*point)[3]);
  core::TraceSpec spec = traceSpec;
  spec.seed = static_cast<std::uint64_t>(seed);
  std::string traceError;
  const auto trace = spec.build(&traceError);
  if (!trace) {
    std::cerr << "trace: " << traceError << "\n";
    return 1;
  }
  const auto result = bench::runWithCheckpoints(
      *trace, paramsForPoint(base, lossRates, xi, pi, mi, seed),
      common.pointCheckpoint, common.checkpointEvery);
  std::cout << bench::formatResultLine(
      common.pointKey,
      {result.delivery.fileRatio, result.delivery.metadataRatio,
       result.delivery.meanFileDelaySeconds / 3600.0,
       static_cast<double>(result.totals.codedDecodeRowOps)});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CommonArgs common =
      bench::parseCommonArgs("robustness", 3, argc, argv);
  const std::vector<double> lossRates = {0.0, 0.05, 0.1, 0.2,
                                         0.3, 0.5,  0.7};

  core::EngineParams base = bench::nusBaseParams();
  // Multi-piece files so the coded axis has real generations to mix —
  // at one piece per file RLNC degenerates to uncoded broadcast.
  base.piecesPerFile = 4;
  core::TraceSpec traceSpec;
  traceSpec.family = "nus";
  traceSpec.students = 160;
  traceSpec.courses = 32;
  traceSpec.days = 12;
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
    base = scenario->params;
    traceSpec = scenario->trace;
    std::cout << "scenario: " << scenario->name << " ("
              << common.scenarioPath << ")\n";
  }

  if (!common.pointKey.empty()) {
    return runPoint(common, base, traceSpec, lossRates);
  }

  const int seeds = common.seeds;
  const unsigned threads = common.threads;
  const bool supervised = !common.superviseJournal.empty();
  std::cout << "=== robustness: delivery and delay vs message loss ===\n"
            << "x-axis: loss rate; " << seeds
            << " seed(s) per point; protocols: MBT, MBT-Q, MBT-QM; "
            << "modes: baseline / +rec / +coded per point; " << threads
            << " thread(s)\n\n";

  const std::size_t points = lossRates.size();
  std::vector<double> fileRatio(points * 3 * kModes *
                                static_cast<std::size_t>(seeds));
  std::vector<double> mdRatio(fileRatio.size());
  std::vector<double> fileDelayH(fileRatio.size());
  std::vector<double> decodeRowOps(fileRatio.size());
  if (supervised) {
    // One crash-isolated child per point, with retry-with-resume and
    // done points skipped.
    const bool ok = bench::runSupervisedSweep(
        common, argv[0], "robustness",
        {{"xi", points}, {"pi", 3}, {"mi", kModes}}, seeds, 4,
        [&](std::size_t task, const std::vector<double>& values) {
          fileRatio[task] = values[0];
          mdRatio[task] = values[1];
          fileDelayH[task] = values[2];
          decodeRowOps[task] = values[3];
        });
    if (!ok) return 1;
  } else {
    // Traces first (read-only, shared across the sweep), one per seed.
    std::vector<trace::ContactTrace> traces(
        static_cast<std::size_t>(seeds));
    std::vector<std::string> traceErrors(traces.size());
    parallelFor(traces.size(), threads, [&](std::size_t i) {
      core::TraceSpec spec = traceSpec;
      spec.seed = i + 1;
      if (auto built = spec.build(&traceErrors[i])) traces[i] = *built;
    });
    for (const std::string& error : traceErrors) {
      if (!error.empty()) {
        std::cerr << "trace: " << error << "\n";
        return 1;
      }
    }

    parallelFor(fileRatio.size(), threads, [&](std::size_t task) {
      const std::size_t perPoint =
          3 * kModes * static_cast<std::size_t>(seeds);
      const std::size_t xi = task / perPoint;
      std::size_t rest = task % perPoint;
      const std::size_t pi =
          rest / (kModes * static_cast<std::size_t>(seeds));
      rest %= kModes * static_cast<std::size_t>(seeds);
      const std::size_t mi = rest / static_cast<std::size_t>(seeds);
      const std::size_t seed = rest % static_cast<std::size_t>(seeds);
      const auto result = core::runSimulation(
          traces[seed], paramsForPoint(base, lossRates, xi, pi, mi,
                                       static_cast<int>(seed) + 1));
      fileRatio[task] = result.delivery.fileRatio;
      mdRatio[task] = result.delivery.metadataRatio;
      fileDelayH[task] = result.delivery.meanFileDelaySeconds / 3600.0;
      decodeRowOps[task] =
          static_cast<double>(result.totals.codedDecodeRowOps);
    });
  }

  // Series index: pi * kModes + mi (protocol-major; baseline, +rec,
  // +coded).
  const std::size_t seriesCount = 3 * kModes;
  std::vector<std::vector<double>> ratioSeries(seriesCount),
      delaySeries(seriesCount), rowOpsSeries(seriesCount);
  std::vector<std::string> columns = {"loss rate"};
  for (std::size_t pi = 0; pi < 3; ++pi) {
    for (std::size_t mi = 0; mi < kModes; ++mi) {
      columns.push_back(std::string(core::protocolName(kProtocols[pi])) +
                        kModeSuffix[mi]);
    }
  }
  Table ratioTable(columns);
  Table delayTable(columns);
  for (std::size_t xi = 0; xi < points; ++xi) {
    std::vector<double> ratioMeans(seriesCount, 0.0);
    std::vector<double> delayMeans(seriesCount, 0.0);
    for (std::size_t pi = 0; pi < 3; ++pi) {
      for (std::size_t mi = 0; mi < kModes; ++mi) {
        double ratioSum = 0.0, delaySum = 0.0, rowOpsSum = 0.0;
        for (int seed = 0; seed < seeds; ++seed) {
          const std::size_t task =
              ((xi * 3 + pi) * kModes + mi) *
                  static_cast<std::size_t>(seeds) +
              static_cast<std::size_t>(seed);
          ratioSum += fileRatio[task];
          delaySum += fileDelayH[task];
          rowOpsSum += decodeRowOps[task];
        }
        const std::size_t si = pi * kModes + mi;
        ratioMeans[si] = ratioSum / seeds;
        delayMeans[si] = delaySum / seeds;
        ratioSeries[si].push_back(ratioMeans[si]);
        delaySeries[si].push_back(delayMeans[si]);
        rowOpsSeries[si].push_back(rowOpsSum / seeds);
      }
    }
    ratioTable.addRow({lossRates[xi], ratioMeans[0], ratioMeans[1],
                       ratioMeans[2], ratioMeans[3], ratioMeans[4],
                       ratioMeans[5], ratioMeans[6], ratioMeans[7],
                       ratioMeans[8]});
    delayTable.addRow({lossRates[xi], delayMeans[0], delayMeans[1],
                       delayMeans[2], delayMeans[3], delayMeans[4],
                       delayMeans[5], delayMeans[6], delayMeans[7],
                       delayMeans[8]});
  }

  std::cout << "file delivery ratio:\n";
  ratioTable.writeAligned(std::cout);
  std::cout << "\nmean file delay (h):\n";
  delayTable.writeAligned(std::cout);
  std::cout << "\nCSV (file delivery ratio):\n";
  ratioTable.writeCsv(std::cout);
  std::cout << "\ndecode CPU (" << core::downloadModeName(
                   core::DownloadMode::kCoded, base.protocol.scheduling)
            << " mode, mean Gauss-Jordan row ops per run):\n";
  Table rowOpsTable({"loss rate", "MBT+coded", "MBT-Q+coded",
                     "MBT-QM+coded"});
  for (std::size_t xi = 0; xi < points; ++xi) {
    rowOpsTable.addRow({lossRates[xi], rowOpsSeries[0 * kModes + 2][xi],
                        rowOpsSeries[1 * kModes + 2][xi],
                        rowOpsSeries[2 * kModes + 2][xi]});
  }
  rowOpsTable.writeAligned(std::cout);
  std::cout << "\n";

  const char glyphs[9] = {'*', 'A', 'a', 'o', 'B', 'b', '.', 'C', 'c'};
  AsciiChart ratioChart("robustness: file delivery ratio vs loss rate",
                        lossRates);
  AsciiChart delayChart("robustness: mean file delay (h) vs loss rate",
                        lossRates);
  for (std::size_t pi = 0; pi < 3; ++pi) {
    for (std::size_t mi = 0; mi < kModes; ++mi) {
      const std::size_t si = pi * kModes + mi;
      const std::string name =
          std::string(core::protocolName(kProtocols[pi])) + kModeSuffix[mi];
      ratioChart.addSeries({name, glyphs[si], ratioSeries[si]});
      delayChart.addSeries({name, glyphs[si], delaySeries[si]});
    }
  }
  std::cout << ratioChart.render() << "\n" << delayChart.render()
            << std::endl;

  // --- adversary axis: delivery vs Byzantine fraction ----------------------
  const std::vector<double> advFractions = {0.0, 0.1, 0.2, 0.3};
  const std::size_t advPoints = advFractions.size();
  const std::size_t seedsN = static_cast<std::size_t>(seeds);
  const std::size_t advTaskCount = advPoints * 3 * 2 * seedsN;
  std::vector<double> advRatio(advTaskCount), advInjected(advTaskCount),
      advDetected(advTaskCount), advPolluted(advTaskCount),
      advQuarantined(advTaskCount), advFalseQ(advTaskCount);
  {
    std::vector<trace::ContactTrace> advTraces(seedsN);
    std::vector<std::string> advTraceErrors(seedsN);
    parallelFor(seedsN, threads, [&](std::size_t i) {
      core::TraceSpec spec = traceSpec;
      spec.seed = i + 1;
      if (auto built = spec.build(&advTraceErrors[i])) {
        advTraces[i] = *built;
      }
    });
    for (const std::string& error : advTraceErrors) {
      if (!error.empty()) {
        std::cerr << "trace: " << error << "\n";
        return 1;
      }
    }
    parallelFor(advTaskCount, threads, [&](std::size_t task) {
      const std::size_t perPoint = 3 * 2 * seedsN;
      const std::size_t fi = task / perPoint;
      std::size_t rest = task % perPoint;
      const std::size_t pi = rest / (2 * seedsN);
      rest %= 2 * seedsN;
      const std::size_t di = rest / seedsN;
      const std::size_t seed = rest % seedsN;
      core::EngineParams params = base;
      params.protocol.kind = kProtocols[pi];
      params.seed = static_cast<std::uint64_t>(seed + 1) * 1000003u;
      params.downloadMode = core::DownloadMode::kCoded;
      params.recovery = sweepRecoveryParams();
      params.adversary.byzantineFraction = advFractions[fi];
      params.adversary.attacks = faults::kAllAttacks;
      params.reputation.defense = di == 1;
      const auto result = core::runSimulation(advTraces[seed], params);
      advRatio[task] = result.delivery.fileRatio;
      advInjected[task] =
          static_cast<double>(result.totals.pollutionInjected);
      advDetected[task] =
          static_cast<double>(result.totals.pollutionDetected);
      advPolluted[task] =
          static_cast<double>(result.totals.pollutedDeliveries);
      advQuarantined[task] =
          static_cast<double>(result.totals.nodesQuarantined);
      advFalseQ[task] = static_cast<double>(result.totals.falseQuarantines);
    });
  }
  const auto advMean = [&](const std::vector<double>& v, std::size_t fi,
                           std::size_t pi, std::size_t di) {
    const std::size_t first = ((fi * 3 + pi) * 2 + di) * seedsN;
    double sum = 0.0;
    for (std::size_t s = 0; s < seedsN; ++s) sum += v[first + s];
    return sum / static_cast<double>(seedsN);
  };
  std::cout << "adversary axis (coded+rec, all attacks; defense off/on):\n"
            << "file delivery ratio vs Byzantine fraction:\n";
  std::vector<std::string> advColumns = {"byz fraction"};
  for (std::size_t pi = 0; pi < 3; ++pi) {
    for (std::size_t di = 0; di < 2; ++di) {
      advColumns.push_back(std::string(core::protocolName(kProtocols[pi])) +
                           (di == 0 ? " undef" : " def"));
    }
  }
  Table advTable(advColumns);
  std::vector<std::vector<double>> advSeries(6);
  for (std::size_t fi = 0; fi < advPoints; ++fi) {
    double m[6];
    for (std::size_t pi = 0; pi < 3; ++pi) {
      for (std::size_t di = 0; di < 2; ++di) {
        m[pi * 2 + di] = advMean(advRatio, fi, pi, di);
        advSeries[pi * 2 + di].push_back(m[pi * 2 + di]);
      }
    }
    advTable.addRow(
        {advFractions[fi], m[0], m[1], m[2], m[3], m[4], m[5]});
  }
  advTable.writeAligned(std::cout);
  AsciiChart advChart(
      "robustness: file delivery ratio vs Byzantine fraction", advFractions);
  const char advGlyphs[6] = {'A', 'a', 'B', 'b', 'C', 'c'};
  for (std::size_t pi = 0; pi < 3; ++pi) {
    for (std::size_t di = 0; di < 2; ++di) {
      advChart.addSeries(
          {std::string(core::protocolName(kProtocols[pi])) +
               (di == 0 ? " undef" : " def"),
           advGlyphs[pi * 2 + di], advSeries[pi * 2 + di]});
    }
  }
  std::cout << "\n" << advChart.render() << std::endl;

  if (!common.jsonPath.empty()) {
    std::ofstream json(common.jsonPath);
    if (!json) {
      std::cerr << "cannot write " << common.jsonPath << "\n";
      return 1;
    }
    json << "{\n"
         << "  \"figure\": \"robustness\",\n"
         << "  \"title\": \"delivery and delay vs message loss\",\n"
         << "  \"x_label\": \"loss rate\",\n"
         << "  \"seeds\": " << seeds << ",\n"
         << "  \"series\": [\n";
    for (std::size_t pi = 0; pi < 3; ++pi) {
      for (std::size_t mi = 0; mi < kModes; ++mi) {
        const std::size_t si = pi * kModes + mi;
        const char* mode = mi == 0   ? "baseline"
                           : mi == 1 ? "recovery"
                                     : "coded";
        json << "    {\"protocol\": \"" << core::protocolName(kProtocols[pi])
             << "\", \"mode\": \"" << mode
             << "\", \"recovery\": " << (mi == 1 ? "true" : "false")
             << ", \"points\": [";
        for (std::size_t xi = 0; xi < points; ++xi) {
          const std::size_t firstTask =
              ((xi * 3 + pi) * kModes + mi) *
              static_cast<std::size_t>(seeds);
          double mdSum = 0.0;
          for (int seed = 0; seed < seeds; ++seed) {
            mdSum += mdRatio[firstTask + static_cast<std::size_t>(seed)];
          }
          json << (xi == 0 ? "" : ", ") << "{\"x\": " << lossRates[xi]
               << ", \"metadata_ratio\": " << mdSum / seeds
               << ", \"file_ratio\": " << ratioSeries[si][xi]
               << ", \"mean_file_delay_h\": " << delaySeries[si][xi]
               << ", \"decode_row_ops\": " << rowOpsSeries[si][xi] << "}";
        }
        json << "]}" << (si + 1 < seriesCount ? "," : "") << "\n";
      }
    }
    json << "  ],\n"
         << "  \"adversary_series\": [\n";
    for (std::size_t pi = 0; pi < 3; ++pi) {
      for (std::size_t di = 0; di < 2; ++di) {
        json << "    {\"protocol\": \"" << core::protocolName(kProtocols[pi])
             << "\", \"defense\": " << (di == 1 ? "true" : "false")
             << ", \"points\": [";
        for (std::size_t fi = 0; fi < advPoints; ++fi) {
          json << (fi == 0 ? "" : ", ") << "{\"x\": " << advFractions[fi]
               << ", \"file_ratio\": " << advMean(advRatio, fi, pi, di)
               << ", \"pollution_injected\": "
               << advMean(advInjected, fi, pi, di)
               << ", \"pollution_detected\": "
               << advMean(advDetected, fi, pi, di)
               << ", \"polluted_deliveries\": "
               << advMean(advPolluted, fi, pi, di)
               << ", \"nodes_quarantined\": "
               << advMean(advQuarantined, fi, pi, di)
               << ", \"false_quarantines\": " << advMean(advFalseQ, fi, pi, di)
               << "}";
        }
        json << "]}" << (pi * 2 + di + 1 < 6 ? "," : "") << "\n";
      }
    }
    json << "  ]\n}\n";
    std::cout << "json written to " << common.jsonPath << std::endl;
  }
  return 0;
}
