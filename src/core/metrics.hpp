// Delivery accounting.
//
// The paper's performance measurements are the delivery ratios of metadata
// and of files: delivered count over total queries generated, measured over
// the non-Internet-access nodes (Section VI-B). The collector tracks every
// generated query against its ground-truth target file and the times its
// metadata / complete file reached the owner.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

/// Population slices a report can be computed over.
enum class MetricScope {
  kNonAccess,             ///< the paper's measurement population
  kAccess,                ///< Internet-access nodes (sanity: ratios ~ 1)
  kNonAccessContributors, ///< non-access nodes that are not free-riders
  kNonAccessFreeRiders,   ///< non-access free-riders (TFT evaluation)
  kAll,
};

struct DeliveryReport {
  std::size_t queries = 0;
  std::size_t metadataDelivered = 0;
  std::size_t filesDelivered = 0;
  double metadataRatio = 0.0;
  double fileRatio = 0.0;
  /// Mean delay from query issue to delivery, over delivered ones only.
  double meanMetadataDelaySeconds = 0.0;
  double meanFileDelaySeconds = 0.0;
};

class MetricsCollector {
 public:
  /// One query's accounting, as record() reports it.
  struct QueryRecord {
    QueryId id;
    NodeId owner;
    FileId target;
    SimTime issuedAt = 0;
    Duration ttl = 0;
    bool ownerIsAccess = false;
    bool ownerIsFreeRider = false;
    std::optional<SimTime> metadataAt;
    std::optional<SimTime> fileAt;

    [[nodiscard]] SimTime expiresAt() const { return issuedAt + ttl; }
  };

  /// Registers a generated query; returns its id.
  QueryId registerQuery(NodeId owner, FileId target, SimTime issuedAt,
                        Duration ttl, bool ownerIsAccess,
                        bool ownerIsFreeRider);

  /// Marks the owner as holding metadata of the target at `when` (first
  /// time wins; late or post-expiry marks are ignored).
  void markMetadataDelivered(QueryId id, SimTime when);
  void markFileDelivered(QueryId id, SimTime when);

  /// Marks every unsatisfied query of `owner` targeting `target`.
  void onNodeGotMetadata(NodeId owner, FileId target, SimTime when);
  void onNodeCompletedFile(NodeId owner, FileId target, SimTime when);

  [[nodiscard]] std::size_t queryCount() const { return count_; }
  /// The record of query `id` (ids run from 0 to queryCount() - 1).
  [[nodiscard]] QueryRecord record(QueryId id) const;

  [[nodiscard]] DeliveryReport report(MetricScope scope) const;

  /// Checkpoints every query record; the (owner, target) index is rebuilt
  /// on load.
  void saveState(Serializer& out) const;
  /// Throws SerializeError on a record whose id is not its position, or
  /// whose delivery time is the collector's "never" value.
  void loadState(Deserializer& in);

  /// Bytes one query costs in the collector's record chunks.
  [[nodiscard]] static constexpr std::size_t storedRecordBytes() {
    return sizeof(Stored);
  }

 private:
  /// A query as the collector stores it: the id is its position, and an
  /// absent delivery time is kNever. Trivial, so a new chunk is not
  /// written until its records are.
  struct Stored {
    std::uint32_t owner;
    std::uint32_t target;
    SimTime issuedAt;
    Duration ttl;
    SimTime metadataAt;
    SimTime fileAt;
    bool ownerIsAccess;
    bool ownerIsFreeRider;

    [[nodiscard]] SimTime expiresAt() const { return issuedAt + ttl; }
  };
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  /// Records per chunk: growth adds a chunk, never copies one.
  static constexpr std::size_t kChunkRecords = 4096;

  [[nodiscard]] Stored& at(std::size_t i) {
    return chunks_[i / kChunkRecords][i % kChunkRecords];
  }
  [[nodiscard]] const Stored& at(std::size_t i) const {
    return chunks_[i / kChunkRecords][i % kChunkRecords];
  }
  /// Appends a record and indexes it.
  void append(const Stored& record);
  [[nodiscard]] static bool inScope(const Stored& r, MetricScope scope);

  /// Appends the last record to the index, growing the table first when
  /// it would pass half full.
  void indexLastRecord();
  /// Puts record `record` in the first free slot of its probe sequence.
  void placeInIndex(std::size_t record);
  /// Calls fn(id) for every record of (owner, target), in insertion order.
  template <typename Fn>
  void forEachRecordOf(NodeId owner, FileId target, Fn&& fn);

  std::vector<std::unique_ptr<Stored[]>> chunks_;
  std::size_t count_ = 0;
  /// (owner, target) -> record index: an open-addressed table (linear
  /// probing, power-of-two size, at most half full) that allocates nothing
  /// per key. A slot packs the high 32 bits of the key's hash with the
  /// record index + 1 (0 = empty), so a probe rejects most other keys
  /// without reading the record. Records sharing a key take successive
  /// slots along the probe sequence.
  std::vector<std::uint64_t> index_;
};

static_assert(MetricsCollector::storedRecordBytes() <= 48,
              "one record per generated query: keep it compact "
              "(docs/PERFORMANCE.md, \"Flat node state\")");

}  // namespace hdtn::core
