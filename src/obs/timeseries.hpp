// Time-series sampling of a running engine.
//
// The paper's evaluation is about trajectories (delivery ratio over
// simulated days), so the observability layer can sample the full
// EngineResult — every DeliveryReport slice plus the traffic totals — at a
// fixed cadence while the simulation advances through the stepped API
// (Engine::runUntil / finish). The final sample is taken from the finished
// run's result, so it equals the end-of-run report exactly.
#pragma once

#include <ostream>
#include <vector>

#include "src/core/engine.hpp"

namespace hdtn::obs {

struct TimeSeriesSample {
  /// Sampling horizon (wall time of the sample, not of the last event).
  SimTime time = 0;
  core::EngineResult result;
};

/// An in-memory run trajectory with CSV / JSON serialization.
class TimeSeries {
 public:
  void addSample(SimTime time, const core::EngineResult& result) {
    samples_.push_back({time, result});
  }

  [[nodiscard]] const std::vector<TimeSeriesSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// One header row plus one row per sample. Flushes and throws
  /// std::runtime_error when the stream ends up in a failed state (disk
  /// full, closed file) — a silently truncated series must not pass for a
  /// complete one.
  void writeCsv(std::ostream& out) const;

  /// One CSV data row for `sample`, no trailing flush or check. Resume
  /// drivers use these two to emit the series incrementally (header once,
  /// one row per sample boundary) instead of buffering the whole run; the
  /// bytes equal what writeCsv produces for the same samples.
  static void writeCsvHeader(std::ostream& out);
  static void writeCsvRow(std::ostream& out, const TimeSeriesSample& sample);

 private:
  std::vector<TimeSeriesSample> samples_;
};

/// Drives `engine` to completion through the stepped API, sampling every
/// `cadence` seconds of simulated time (first sample at `cadence`), then
/// appends the finished run's result as the final sample and returns it.
/// The returned result is byte-identical to what Engine::run() on the same
/// engine would have produced. Throws std::invalid_argument when cadence
/// is not positive, std::logic_error when the engine already finished.
core::EngineResult runSampled(core::Engine& engine, Duration cadence,
                              TimeSeries& out);

}  // namespace hdtn::obs
