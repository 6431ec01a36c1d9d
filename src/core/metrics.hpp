// Delivery accounting.
//
// The paper's performance measurements are the delivery ratios of metadata
// and of files: delivered count over total queries generated, measured over
// the non-Internet-access nodes (Section VI-B). The collector tracks every
// generated query against its ground-truth target file and the times its
// metadata / complete file reached the owner.
#pragma once

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

  [[nodiscard]] std::size_t queryCount() const { return records_.size(); }
  [[nodiscard]] const QueryRecord& record(QueryId id) const;
  [[nodiscard]] const std::vector<QueryRecord>& records() const {
    return records_;
  }

  [[nodiscard]] DeliveryReport report(MetricScope scope) const;

  /// Checkpoints every query record; the (owner, target) index is rebuilt
  /// on load.
  void saveState(Serializer& out) const;
  void loadState(Deserializer& in);

 private:
  [[nodiscard]] bool inScope(const QueryRecord& r, MetricScope scope) const;

  /// Appends records_.back() to the index, growing the table first when
  /// it would pass half full.
  void indexLastRecord();
  /// Puts records_[record] in the first free slot of its probe sequence.
  void placeInIndex(std::size_t record);
  /// Calls fn(record) for every record of (owner, target), in insertion
  /// order.
  template <typename Fn>
  void forEachRecordOf(NodeId owner, FileId target, Fn&& fn);

  std::vector<QueryRecord> records_;
  /// (owner, target) -> records_ index: an open-addressed table (linear
  /// probing, power-of-two size, at most half full) that allocates nothing
  /// per key. A slot packs the high 32 bits of the key's hash with the
  /// record index + 1 (0 = empty), so a probe rejects most other keys
  /// without reading the record. Records sharing a key take successive
  /// slots along the probe sequence.
  std::vector<std::uint64_t> index_;
};

}  // namespace hdtn::core
