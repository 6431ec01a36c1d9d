// Span recording for traced repetitions.
//
// Spans are kept in memory and written once, when the repetition ends, to
// out/trace_<workload>.json beside hdtn_bench. Each span has a name, a start
// and an end (seconds since the recorder was created), the index of the span
// that caused it (-1 for a root), and an id shared by every span of one
// contact or one job (0 when the span belongs to neither).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/events.hpp"

namespace hdtn::bench {

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span at the current time; returns its index.
  std::int64_t open(const char* name, std::int64_t parent,
                    std::uint64_t id = 0);
  /// Closes a span opened with open().
  void close(std::int64_t span);
  /// Records a span whose times (nowSeconds() values) are already known.
  std::int64_t add(const char* name, double start, double end,
                   std::int64_t parent, std::uint64_t id = 0);

  /// Writes {"workload": ..., "spans": [...]}; throws std::runtime_error
  /// when the file cannot be written.
  void write(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    std::int64_t parent;
    std::uint64_t id;
  };
  double origin_;
  std::vector<Span> spans_;
};

/// Benchmark-owned observer: timestamps the contact-path stage boundaries
/// an Engine publishes and counts every event. Per contact it records a
/// "contact" span with "pre_plan", "metadata" and "piece" children:
///   pre_plan  contact_begin -> discovery_planned (or download_planned, or
///             contact_end when neither planner ran)
///   metadata  discovery_planned -> download_planned (or contact_end)
///   piece     download_planned -> contact_end
class StageObserver final : public obs::EngineObserver {
 public:
  /// Contact spans hang under `parent`.
  StageObserver(SpanRecorder& spans, std::int64_t parent);

  void onEvent(const obs::SimEvent& event) override;

  [[nodiscard]] double prePlanSeconds() const { return prePlan_; }
  [[nodiscard]] double metadataSeconds() const { return metadata_; }
  [[nodiscard]] double pieceSeconds() const { return piece_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t contactsEnded() const { return contacts_; }
  [[nodiscard]] std::uint64_t filesPublished() const { return published_; }

 private:
  void closeContact(double end);

  SpanRecorder& spans_;
  std::int64_t parent_;
  double begin_ = 0.0;
  double discovery_ = -1.0;
  double download_ = -1.0;
  double prePlan_ = 0.0;
  double metadata_ = 0.0;
  double piece_ = 0.0;
  std::uint64_t events_ = 0;
  std::uint64_t contacts_ = 0;
  std::uint64_t published_ = 0;
};

}  // namespace hdtn::bench
