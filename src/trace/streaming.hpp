// Streaming contact traces.
//
// A materialized ContactTrace holds every contact in memory; at city scale
// (10^5–10^6 nodes, millions of contacts per day) that is gigabytes before
// the simulation even starts. A ContactStream instead yields contacts on
// demand, in exactly the (start, end, members) order ContactTrace::sortByStart
// establishes, so the sharded engine (core/sharded_engine.hpp) can consume a
// day-long city trace holding only one sync epoch of contacts at a time.
// CityStream (trace/citygen.hpp) generates its contacts lazily;
// MaterializedStream adapts an existing (sorted) ContactTrace, so tests can
// hold a stream consumer to the trace it was given.
//
// Equivalence contract (tested): iterating a stream yields the exact contact
// sequence the corresponding materialized ContactTrace holds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/trace/contact_trace.hpp"
#include "src/util/types.hpp"

namespace hdtn::trace {

/// A lazy, replayable, sorted sequence of contacts.
class ContactStream {
 public:
  virtual ~ContactStream() = default;

  /// The next contact in (start, end, members) order; nullopt when the
  /// stream is exhausted. Contacts are normalized like
  /// ContactTrace::addContact: members sorted and distinct (>= 2), end >
  /// start.
  virtual std::optional<Contact> next() = 0;

  /// Rewinds to the first contact. Streams are deterministic: a replay
  /// yields the identical sequence (checkpoint restore depends on this).
  virtual void reset() = 0;

  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Node universe: ids are [0, nodeCount).
  [[nodiscard]] virtual std::size_t nodeCount() const = 0;

  /// Upper bound on contact end times (the natural run horizon). Known up
  /// front for every stream family (index pass / trace span / day count).
  [[nodiscard]] virtual SimTime endTime() const = 0;

  /// Optional node -> partition label. A generator that constructs contacts
  /// partition-local (CityStream: contacts never span districts) reports the
  /// labels here so the sharded engine can skip its union-find pre-pass over
  /// all contacts. Empty = unknown; labels need not be dense.
  [[nodiscard]] virtual const std::vector<std::uint32_t>& partitionHint()
      const;
};

/// Adapts a sorted ContactTrace (non-owning; the trace must outlive the
/// stream and must already be sortByStart()-ordered).
class MaterializedStream final : public ContactStream {
 public:
  explicit MaterializedStream(const ContactTrace& trace) : trace_(&trace) {}

  std::optional<Contact> next() override;
  void reset() override { pos_ = 0; }
  [[nodiscard]] const std::string& name() const override {
    return trace_->name();
  }
  [[nodiscard]] std::size_t nodeCount() const override {
    return trace_->nodeCount();
  }
  [[nodiscard]] SimTime endTime() const override { return trace_->endTime(); }

 private:
  const ContactTrace* trace_;
  std::size_t pos_ = 0;
};

/// Drains a stream into a ContactTrace (reset first, then every contact).
/// Intended for tests and small inputs; defeats the purpose at city scale.
[[nodiscard]] ContactTrace materialize(ContactStream& stream);

}  // namespace hdtn::trace
