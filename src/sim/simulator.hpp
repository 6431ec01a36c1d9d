// Simulation driver: a clock over an EventQueue with run-until semantics and
// periodic tasks. The file-sharing engine (core/engine) layers the protocol
// logic on top of this.
#pragma once

#include <functional>

#include "src/sim/event_queue.hpp"
#include "src/util/types.hpp"

namespace hdtn::sim {

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return queue_.now(); }

  /// Pre-sizes the queue for a known bulk schedule (the engine schedules
  /// every trace contact up front).
  void reserve(std::size_t events) { queue_.reserve(events); }

  /// Schedules at an absolute time.
  void at(SimTime when, EventFn fn) { queue_.schedule(when, std::move(fn)); }

  /// Schedules `delay` seconds from now.
  void after(Duration delay, EventFn fn);

  /// Schedules `fn(now)` every `period` seconds, starting at `first`, until
  /// the horizon passed to run().
  void every(SimTime first, Duration period, std::function<void(SimTime)> fn);

  /// Runs events until the queue drains or the next event is at or after
  /// `horizon`. The clock finishes at min(horizon, time of last event run).
  void runUntil(SimTime horizon);

  /// Runs everything.
  void run() { runUntil(kTimeInfinity); }

  /// Runs exactly one event. Returns false when the queue is empty (nothing
  /// ran). Recurring tasks scheduled with every() reschedule against an
  /// infinite horizon here, as in run().
  bool runOne();

  /// Discards the next event without executing it, advancing the clock to
  /// its scheduled time and counting it as executed. Checkpoint restore
  /// replays the deterministic schedule and skips the prefix the snapshot
  /// already covers. Returns false when the queue is empty.
  bool skipOne();

  [[nodiscard]] std::size_t pendingEvents() const { return queue_.size(); }
  /// Time of the next pending event; kTimeInfinity when the queue is empty.
  [[nodiscard]] SimTime nextEventTime() const { return queue_.nextTime(); }
  [[nodiscard]] std::uint64_t executedEvents() const { return executed_; }

 private:
  EventQueue queue_;
  std::uint64_t executed_ = 0;
  SimTime horizon_ = kTimeInfinity;
};

}  // namespace hdtn::sim
