// Declarative run configuration: one value type that owns everything a
// simulation run needs — the trace source, the EngineParams (including
// fault injection), and the output choices — plus a `key = value` file
// format.
//
// The Scenario is the preferred entry point for tools, benches, and tests:
// instead of each binary re-implementing flag parsing, trace loading, and
// sink plumbing, it configures a Scenario (from a file or from CLI
// overrides) and calls runScenario(). Both paths funnel through
// Scenario::apply(key, value), so a scenario-file key and the matching
// hdtn_sim flag always have identical semantics. Every key, its help line
// and its field's rules are rows of one parameter table
// (src/core/params.cpp).
//
// File format (see examples/*.scenario):
//
//   # comment
//   name            = nus-paper
//   trace-family    = nus
//   trace-students  = 160
//   protocol        = mbt-qm
//   access          = 0.3
//   loss-rate       = 0.05
//
// Unknown keys and malformed values are reported with line numbers.
#pragma once

#include <csignal>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/trace/contact_trace.hpp"
#include "src/util/args.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

/// Where the contact trace comes from: a trace file on disk, or one of the
/// built-in generators with hdtn_tracegen's defaults.
struct TraceSpec {
  /// "file", "nus", "dieselnet", or "rwp".
  std::string family = "file";
  /// Trace file path (family == "file").
  std::string path;
  std::uint64_t seed = 1;
  /// Generator days; 0 = family default (14 for NUS, 20 for DieselNet).
  int days = 0;
  // NUS campus knobs.
  int students = 200;
  int courses = 40;
  int coursesPerStudent = 4;
  double attendance = 0.85;
  // DieselNet knobs.
  int buses = 40;
  int routes = 8;
  // Random-waypoint knobs.
  int nodes = 50;
  double hours = 12.0;
  double radioRange = 50.0;
  double fieldSize = 1000.0;

  /// One message per violation (unknown family, file family without path,
  /// non-positive sizes); empty when the spec can build a trace.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Builds (or loads) the trace. On failure returns nullopt and stores a
  /// message in *error.
  [[nodiscard]] std::optional<trace::ContactTrace> build(
      std::string* error) const;
};

/// A complete, self-describing run configuration.
struct Scenario {
  std::string name = "scenario";
  TraceSpec trace;
  EngineParams params;
  /// When non-empty, the run writes a JSONL event stream here.
  std::string eventsOut;
  /// When non-empty, the run writes a sampled delivery/totals CSV here.
  std::string timeseriesOut;
  /// Time-series sampling cadence in simulation seconds.
  Duration sampleEvery = 21600;
  /// When non-empty, the run writes a checkpoint here every checkpointEvery
  /// simulation seconds (atomically; see docs/CHECKPOINT.md). The file also
  /// records the byte offsets of eventsOut/timeseriesOut, so a resumed run
  /// reproduces them byte-identically.
  std::string checkpointOut;
  /// Checkpoint cadence in simulation seconds.
  Duration checkpointEvery = 21600;
  /// When true (and checkpointOut names an existing checkpoint), the run
  /// restores from it instead of starting over: outputs are truncated to
  /// the recorded offsets and the finished files are byte-identical to an
  /// uninterrupted run. A missing checkpoint file means a cold start.
  bool resume = false;

  /// Sets one configuration key (scenario-file key == hdtn_sim flag name).
  /// For boolean keys an empty value means true (bare --switch form).
  /// Returns an empty string on success, a descriptive error otherwise.
  [[nodiscard]] std::string apply(const std::string& key,
                                  const std::string& value);

  /// Every key apply() accepts, in table order (CLI override loops): where
  /// two keys set one field, `trace` precedes `trace-family` and
  /// `scheduling` precedes `download-mode`.
  [[nodiscard]] static const std::vector<std::string>& knownKeys();

  /// One help line per key, in knownKeys() order, showing the default of a
  /// default-constructed Scenario ("access=0.3"; a bare switch for
  /// booleans).
  [[nodiscard]] static const std::vector<FlagHelp>& keyHelp();

  /// Parses a `key = value` stream; collects line-numbered errors. Returns
  /// nullopt when any line fails.
  [[nodiscard]] static std::optional<Scenario> parse(
      std::istream& in, std::vector<std::string>* errors);

  /// parse() on the named file; adds a file-level error when unreadable.
  [[nodiscard]] static std::optional<Scenario> fromFile(
      const std::string& path, std::vector<std::string>* errors);

  /// Trace-spec problems + EngineParams::validate() + output sanity, one
  /// message per violation; empty when the scenario can run.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// What one scenario run produced beyond the engine result.
struct ScenarioOutcome {
  EngineResult result;
  /// JSONL events written (0 when eventsOut was empty); counts the whole
  /// run, including events written before the checkpoint a resume loaded.
  std::uint64_t eventsWritten = 0;
  /// True when the run restored from scenario.checkpointOut.
  bool resumed = false;
  /// True when the run stopped early on a preemption request (see
  /// setScenarioStopFlag): a checkpoint was saved and `result` is the
  /// partial state at the stop boundary, not a finished run.
  bool preempted = false;
};

/// Registers a cooperative stop flag for checkpointing runs (nullptr to
/// clear). When the flag becomes nonzero, runScenario saves a checkpoint at
/// the next sample/checkpoint boundary and returns with preempted == true —
/// a later resume=true run finishes byte-identically. The flag type is
/// sig_atomic_t so a SIGTERM handler can set it directly; this is how
/// `hdtn_sim --serve` preempts workers for higher-priority jobs
/// (docs/SERVICE.md). Runs without checkpoint-out ignore the flag.
void setScenarioStopFlag(const volatile std::sig_atomic_t* flag);

/// Runs the scenario over an already-built trace, honoring the scenario's
/// event/time-series outputs. On failure (unwritable output path) returns
/// nullopt and stores a message in *error.
[[nodiscard]] std::optional<ScenarioOutcome> runScenario(
    const Scenario& scenario, const trace::ContactTrace& trace,
    std::string* error);

/// Convenience: builds the trace from the spec, then runs.
[[nodiscard]] std::optional<ScenarioOutcome> runScenario(
    const Scenario& scenario, std::string* error);

}  // namespace hdtn::core
