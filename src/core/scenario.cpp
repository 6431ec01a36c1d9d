#include "src/core/scenario.hpp"

#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "src/core/checkpoint.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/timeseries.hpp"
#include "src/trace/dieselnet.hpp"
#include "src/trace/mobility.hpp"
#include "src/trace/nus.hpp"
#include "src/trace/trace_io.hpp"
#include "src/util/string_util.hpp"

namespace hdtn::core {

// --- TraceSpec --------------------------------------------------------------

std::optional<trace::ContactTrace> TraceSpec::build(std::string* error) const {
  for (const std::string& problem : validate()) {
    if (error != nullptr) *error = problem;
    return std::nullopt;
  }
  if (family == "file") return trace::loadTraceFile(path, error);
  if (family == "nus") {
    trace::NusParams p;
    p.students = students;
    p.courses = courses;
    p.coursesPerStudent = coursesPerStudent;
    p.attendanceRate = attendance;
    if (days > 0) p.days = days;
    p.seed = seed;
    return trace::generateNus(p);
  }
  if (family == "dieselnet") {
    trace::DieselNetParams p;
    p.buses = buses;
    p.routes = routes;
    if (days > 0) p.days = days;
    p.seed = seed;
    return trace::generateDieselNet(p);
  }
  trace::RandomWaypointParams p;
  p.nodes = nodes;
  p.duration = static_cast<Duration>(hours * kHour);
  p.radioRange = radioRange;
  p.fieldWidth = p.fieldHeight = fieldSize;
  p.seed = seed;
  return trace::generateRandomWaypoint(p);
}

// --- Scenario ---------------------------------------------------------------

std::optional<Scenario> Scenario::parse(std::istream& in,
                                        std::vector<std::string>* errors) {
  Scenario scenario;
  bool failed = false;
  std::string line;
  int lineNumber = 0;
  while (std::getline(in, line)) {
    ++lineNumber;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    const std::string trimmed(trim(line));
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      if (errors != nullptr) {
        errors->push_back("line " + std::to_string(lineNumber) +
                          ": expected 'key = value', got '" + trimmed + "'");
      }
      failed = true;
      continue;
    }
    const std::string key(trim(std::string_view(trimmed).substr(0, eq)));
    const std::string value(trim(std::string_view(trimmed).substr(eq + 1)));
    if (key.empty()) {
      if (errors != nullptr) {
        errors->push_back("line " + std::to_string(lineNumber) +
                          ": empty key");
      }
      failed = true;
      continue;
    }
    const std::string error = scenario.apply(key, value);
    if (!error.empty()) {
      if (errors != nullptr) {
        errors->push_back("line " + std::to_string(lineNumber) + ": " + error);
      }
      failed = true;
    }
  }
  if (failed) return std::nullopt;
  return scenario;
}

std::optional<Scenario> Scenario::fromFile(const std::string& path,
                                           std::vector<std::string>* errors) {
  std::ifstream in(path);
  if (!in) {
    if (errors != nullptr) {
      errors->push_back("cannot read scenario file '" + path + "'");
    }
    return std::nullopt;
  }
  return parse(in, errors);
}

// --- runScenario ------------------------------------------------------------

namespace {

/// Cooperative preemption flag (setScenarioStopFlag). Checked only at
/// sample/checkpoint boundaries of checkpointing runs, so the cost on the
/// simulation hot path is zero.
const volatile std::sig_atomic_t* g_stopFlag = nullptr;

bool stopRequested() { return g_stopFlag != nullptr && *g_stopFlag != 0; }

}  // namespace

void setScenarioStopFlag(const volatile std::sig_atomic_t* flag) {
  g_stopFlag = flag;
}

namespace {

/// The driver state a checkpointing run stores in the checkpoint's extra
/// blob: how far each output file had gotten (byte offsets, so a resume can
/// truncate a partially written tail and append byte-identically) and the
/// next sample/checkpoint boundaries.
struct ResumeCursor {
  std::uint64_t eventsWritten = 0;
  std::uint64_t eventsOffset = 0;
  std::uint64_t timeseriesOffset = 0;
  SimTime nextSample = 0;
  SimTime nextCheckpoint = 0;
  bool hasEvents = false;
  bool hasTimeseries = false;
};

constexpr std::uint8_t kCursorVersion = 1;

std::string packCursor(const ResumeCursor& cursor) {
  Serializer out;
  out.u8(kCursorVersion);
  out.boolean(cursor.hasEvents);
  out.boolean(cursor.hasTimeseries);
  out.u64(cursor.eventsWritten);
  out.u64(cursor.eventsOffset);
  out.u64(cursor.timeseriesOffset);
  out.i64(cursor.nextSample);
  out.i64(cursor.nextCheckpoint);
  return out.takeBytes();
}

bool unpackCursor(const std::string& blob, ResumeCursor* cursor,
                  std::string* error) {
  try {
    Deserializer in(blob);
    if (in.u8() != kCursorVersion) {
      if (error != nullptr) {
        *error = "cannot resume: checkpoint carries an unknown driver cursor "
                 "version";
      }
      return false;
    }
    cursor->hasEvents = in.boolean();
    cursor->hasTimeseries = in.boolean();
    cursor->eventsWritten = in.u64();
    cursor->eventsOffset = in.u64();
    cursor->timeseriesOffset = in.u64();
    cursor->nextSample = in.i64();
    cursor->nextCheckpoint = in.i64();
    return true;
  } catch (const SerializeError& e) {
    if (error != nullptr) {
      *error = std::string("cannot resume: corrupt driver cursor: ") +
               e.what();
    }
    return false;
  }
}

/// Truncates an output file back to the offset the checkpoint recorded
/// (dropping any tail written after the checkpoint but before the crash)
/// and reopens it in append mode. Missing or too-short files fail loudly:
/// the resume contract is byte identity, and a file that lost bytes before
/// the recorded offset cannot honor it.
bool reopenForResume(const std::string& path, std::uint64_t offset,
                     const char* what, std::ofstream* out,
                     std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = std::string("cannot resume: ") + what + " output '" + path +
               "' is missing (" + ec.message() +
               "); it must survive alongside the checkpoint";
    }
    return false;
  }
  if (size < offset) {
    if (error != nullptr) {
      *error = std::string("cannot resume: ") + what + " output '" + path +
               "' holds " + std::to_string(size) +
               " bytes but the checkpoint recorded " + std::to_string(offset);
    }
    return false;
  }
  fs::resize_file(path, offset, ec);
  if (ec) {
    if (error != nullptr) {
      *error = std::string("cannot resume: cannot truncate ") + what +
               " output '" + path + "': " + ec.message();
    }
    return false;
  }
  out->open(path, std::ios::app);
  if (!*out) {
    if (error != nullptr) {
      *error = std::string("cannot reopen ") + what + " output '" + path +
               "' for append";
    }
    return false;
  }
  return true;
}

}  // namespace

/// The one driver: advances the engine boundary by boundary (sample and
/// checkpoint boundaries, in time order), writing the time series
/// incrementally so every checkpoint can record the exact on-disk offsets
/// of both outputs. Event execution is identical to obs::runSampled; only
/// the bookkeeping between events differs. Without checkpoint-out the run
/// takes no checkpoint and ignores preemption requests.
std::optional<ScenarioOutcome> runScenario(const Scenario& scenario,
                                           const trace::ContactTrace& trace,
                                           std::string* error) {
  namespace fs = std::filesystem;
  for (const std::string& problem : scenario.validate()) {
    if (error != nullptr) *error = problem;
    return std::nullopt;
  }
  const bool checkpointing = !scenario.checkpointOut.empty();
  ScenarioOutcome outcome;
  Engine engine(trace, scenario.params);
  const bool wantEvents = !scenario.eventsOut.empty();
  const bool wantTimeseries = !scenario.timeseriesOut.empty();
  ResumeCursor cursor;
  cursor.hasEvents = wantEvents;
  cursor.hasTimeseries = wantTimeseries;
  cursor.nextSample = scenario.sampleEvery;
  cursor.nextCheckpoint = checkpointing
                              ? scenario.checkpointEvery
                              : std::numeric_limits<SimTime>::max();
  std::uint64_t eventsWrittenBefore = 0;
  if (scenario.resume && fs::exists(scenario.checkpointOut)) {
    try {
      const CheckpointInfo info = readCheckpointInfo(scenario.checkpointOut);
      if (!unpackCursor(info.extra, &cursor, error)) return std::nullopt;
      if (cursor.hasEvents != wantEvents ||
          cursor.hasTimeseries != wantTimeseries) {
        if (error != nullptr) {
          *error = "cannot resume: the checkpoint was written with different "
                   "events-out/timeseries-out settings";
        }
        return std::nullopt;
      }
      engine.restoreCheckpoint(scenario.checkpointOut);
    } catch (const CheckpointError& e) {
      if (error != nullptr) *error = e.what();
      return std::nullopt;
    }
    eventsWrittenBefore = cursor.eventsWritten;
    outcome.resumed = true;
  }
  std::ofstream eventsFile;
  std::optional<obs::JsonlEventSink> sink;
  if (wantEvents) {
    if (outcome.resumed) {
      if (!reopenForResume(scenario.eventsOut, cursor.eventsOffset, "events",
                           &eventsFile, error)) {
        return std::nullopt;
      }
    } else {
      eventsFile.open(scenario.eventsOut);
      if (!eventsFile) {
        if (error != nullptr) *error = "cannot write " + scenario.eventsOut;
        return std::nullopt;
      }
    }
    sink.emplace(eventsFile);
    engine.setObserver(&*sink);
  }
  std::ofstream tsFile;
  if (wantTimeseries) {
    if (outcome.resumed) {
      if (!reopenForResume(scenario.timeseriesOut, cursor.timeseriesOffset,
                           "timeseries", &tsFile, error)) {
        return std::nullopt;
      }
    } else {
      tsFile.open(scenario.timeseriesOut);
      if (!tsFile) {
        if (error != nullptr) {
          *error = "cannot write " + scenario.timeseriesOut;
        }
        return std::nullopt;
      }
      obs::TimeSeries::writeCsvHeader(tsFile);
    }
  }
  const SimTime end = engine.endTime();
  try {
    while (true) {
      SimTime boundary = end;
      if (wantTimeseries && cursor.nextSample < boundary) {
        boundary = cursor.nextSample;
      }
      if (cursor.nextCheckpoint < boundary) boundary = cursor.nextCheckpoint;
      if (boundary >= end) break;
      engine.runUntil(boundary);
      // Sample before checkpointing so a checkpoint at a shared boundary
      // covers the row just written.
      if (wantTimeseries && boundary == cursor.nextSample) {
        obs::TimeSeries::writeCsvRow(tsFile,
                                     {boundary, engine.currentResult()});
        cursor.nextSample += scenario.sampleEvery;
      }
      // A preemption request checkpoints at whatever boundary comes next
      // (sample or checkpoint), so the stop latency is bounded by the
      // tighter of the two cadences.
      const bool preempt = checkpointing && stopRequested();
      if (boundary == cursor.nextCheckpoint || preempt) {
        if (boundary == cursor.nextCheckpoint) {
          cursor.nextCheckpoint += scenario.checkpointEvery;
        }
        // The on-disk bytes must match the offsets the checkpoint records,
        // so flush (and verify) both outputs before writing it.
        if (sink) sink->finish();
        if (wantTimeseries) {
          tsFile.flush();
          if (!tsFile) {
            throw std::runtime_error("I/O error writing " +
                                     scenario.timeseriesOut);
          }
        }
        ResumeCursor at = cursor;
        at.eventsWritten =
            eventsWrittenBefore + (sink ? sink->eventsWritten() : 0);
        at.eventsOffset =
            wantEvents ? static_cast<std::uint64_t>(eventsFile.tellp()) : 0;
        at.timeseriesOffset =
            wantTimeseries ? static_cast<std::uint64_t>(tsFile.tellp()) : 0;
        engine.saveCheckpoint(scenario.checkpointOut, packCursor(at));
      }
      if (preempt) {
        outcome.preempted = true;
        outcome.result = engine.currentResult();
        if (sink) {
          outcome.eventsWritten = eventsWrittenBefore + sink->eventsWritten();
        }
        return outcome;
      }
    }
    outcome.result = engine.finish();
    if (wantTimeseries) {
      obs::TimeSeries::writeCsvRow(tsFile, {end, outcome.result});
      tsFile.flush();
      if (!tsFile) {
        throw std::runtime_error("I/O error writing " +
                                 scenario.timeseriesOut);
      }
    }
    if (sink) sink->finish();
  } catch (const std::runtime_error& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
  if (sink) {
    outcome.eventsWritten = eventsWrittenBefore + sink->eventsWritten();
  }
  return outcome;
}

std::optional<ScenarioOutcome> runScenario(const Scenario& scenario,
                                           std::string* error) {
  const auto trace = scenario.trace.build(error);
  if (!trace) return std::nullopt;
  return runScenario(scenario, *trace, error);
}

}  // namespace hdtn::core
