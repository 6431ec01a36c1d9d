// Shared harness for the figure-regeneration benches.
//
// Every bench binary regenerates one panel of the paper's evaluation
// (Figures 2(a)-2(e) on the DieselNet-style trace, 3(a)-3(f) on the NUS
// style trace): it sweeps one parameter, runs the three protocols (MBT,
// MBT-Q, MBT-QM) at each point averaged over several seeds, and prints the
// metadata and file delivery-ratio series as aligned tables, CSV, and ASCII
// charts — the same rows/series the paper plots.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/trace/contact_trace.hpp"
#include "src/util/types.hpp"

namespace hdtn::bench {

/// Flags shared by every bench binary, parsed once by parseCommonArgs so
/// each binary does not re-implement the scanning loop.
struct CommonArgs {
  /// Seeds averaged per sweep point (--seeds=N, or the HDTN_SEEDS env var).
  int seeds = 3;
  /// Worker threads (--threads=N; defaults to the machine's core count).
  unsigned threads = 0;
  /// Empty when --json was not given; "--json" defaults the path to
  /// BENCH_<figure id>.json in the working directory, "--json=PATH" sets it.
  std::string jsonPath;
  /// Empty when --timeseries was not given; "--timeseries" defaults to the
  /// working directory, "--timeseries=DIR" sets it. When set, runFigure
  /// re-runs the seed-1 simulation of every (x, protocol) point through the
  /// sampled stepper and writes TS_<figure>_<protocol>_x<value>.csv files.
  std::string timeseriesDir;
  /// Sampling cadence for --timeseries (--sample-every=SECONDS).
  Duration sampleEvery = 6 * kHour;
  /// Scenario file (--scenario=PATH): its engine parameters (protocol
  /// knobs, fault rates, ...) replace the figure's base params before the
  /// sweep applies. The figure keeps its own trace and x-axis.
  std::string scenarioPath;
  /// Non-empty when --supervise was given: run every sweep point in a
  /// subprocess under bench::superviseOnePoint, keeping the points' job
  /// queue and checkpoints in this directory ("--supervise" defaults to
  /// BENCH_<figure id>.journal, "--supervise=DIR" sets it). A re-invoked
  /// sweep skips the points already done. See docs/CHECKPOINT.md.
  std::string superviseJournal;
  /// Wall-clock budget per supervised point (--point-timeout=SECONDS).
  double pointTimeoutSeconds = 600.0;
  /// Attempt budget per supervised point (--max-attempts=N).
  int maxAttempts = 3;
  /// Checkpoint cadence for supervised points, sim seconds
  /// (--checkpoint-every=SECONDS).
  Duration checkpointEvery = 6 * kHour;
  /// Internal: --point=KEY puts the binary in single-point child mode
  /// (prints one RESULT line; used by the supervisor, not by hand).
  std::string pointKey;
  /// Internal: the child's checkpoint file (--point-checkpoint=PATH).
  std::string pointCheckpoint;
};

/// Parses --seeds/--threads/--json/--timeseries/--sample-every/--scenario
/// plus the supervision flags --supervise/--point-timeout/--max-attempts/
/// --checkpoint-every and the child-mode --point/--point-checkpoint
/// (unknown arguments are ignored; google-benchmark style binaries pass
/// their own).
[[nodiscard]] CommonArgs parseCommonArgs(const std::string& figureId,
                                         int defaultSeeds, int argc,
                                         char** argv);

using TraceFactory =
    std::function<hdtn::trace::ContactTrace(double x, std::uint64_t seed)>;
using ParamSetter = std::function<void(hdtn::core::EngineParams&, double x)>;

struct FigureSpec {
  std::string id;      ///< e.g. "fig2a"
  std::string title;   ///< chart heading
  std::string xLabel;  ///< swept parameter
  std::vector<double> xs;
  TraceFactory makeTrace;
  hdtn::core::EngineParams base;
  ParamSetter apply;
  /// Seeds averaged per point (override with --seeds=N or HDTN_SEEDS).
  int seeds = 3;
  /// True when the trace itself depends on x (Fig 3(f) attendance sweep).
  bool traceDependsOnX = false;
};

/// Runs the sweep and prints the report. Returns a process exit code.
int runFigure(FigureSpec spec, int argc, char** argv);

/// The synthetic stand-ins for the paper's two traces, at the scales used
/// by all figure benches.
hdtn::trace::ContactTrace defaultDieselNet(std::uint64_t seed);
hdtn::trace::ContactTrace defaultNus(std::uint64_t seed,
                                     double attendanceRate = 0.85);

/// Default engine parameters per trace family (frequent-contact windows per
/// the paper: 3 days for DieselNet, 1 day for NUS).
hdtn::core::EngineParams dieselNetBaseParams();
hdtn::core::EngineParams nusBaseParams();

/// 0.1, 0.2, ..., 0.9 — the Internet-access-fraction sweep.
std::vector<double> accessFractionSweep();

}  // namespace hdtn::bench
