#include "src/core/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace hdtn::core {
namespace {

std::uint64_t keyHash(NodeId owner, FileId target) {
  // splitmix64 finalizer over the packed key: every bit feeds both the slot
  // (low bits) and the tag (high bits).
  std::uint64_t x =
      (static_cast<std::uint64_t>(owner.value) << 32) | target.value;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kTagMask = 0xFFFFFFFF00000000ULL;

}  // namespace

void MetricsCollector::placeInIndex(std::size_t record) {
  const QueryRecord& r = records_[record];
  const std::uint64_t hash = keyHash(r.owner, r.target);
  std::size_t pos = hash & (index_.size() - 1);
  while (index_[pos] != 0) pos = (pos + 1) & (index_.size() - 1);
  index_[pos] = (hash & kTagMask) | (record + 1);
}

void MetricsCollector::indexLastRecord() {
  if (records_.size() * 2 <= index_.size()) {
    placeInIndex(records_.size() - 1);
    return;
  }
  // Grow to double size and re-place every record in order, so records of
  // one key keep their insertion order along the probe sequence.
  index_.assign(std::max<std::size_t>(16, std::bit_ceil(records_.size() * 2)),
                0);
  for (std::size_t i = 0; i < records_.size(); ++i) placeInIndex(i);
}

template <typename Fn>
void MetricsCollector::forEachRecordOf(NodeId owner, FileId target, Fn&& fn) {
  if (index_.empty()) return;
  const std::uint64_t hash = keyHash(owner, target);
  for (std::size_t pos = hash & (index_.size() - 1); index_[pos] != 0;
       pos = (pos + 1) & (index_.size() - 1)) {
    if ((index_[pos] & kTagMask) != (hash & kTagMask)) continue;
    QueryRecord& r = records_[(index_[pos] & ~kTagMask) - 1];
    if (r.owner == owner && r.target == target) fn(r);
  }
}

QueryId MetricsCollector::registerQuery(NodeId owner, FileId target,
                                        SimTime issuedAt, Duration ttl,
                                        bool ownerIsAccess,
                                        bool ownerIsFreeRider) {
  QueryRecord r;
  r.id = QueryId(static_cast<std::uint32_t>(records_.size()));
  r.owner = owner;
  r.target = target;
  r.issuedAt = issuedAt;
  r.ttl = ttl;
  r.ownerIsAccess = ownerIsAccess;
  r.ownerIsFreeRider = ownerIsFreeRider;
  records_.push_back(r);
  indexLastRecord();
  return records_.back().id;
}

void MetricsCollector::markMetadataDelivered(QueryId id, SimTime when) {
  assert(id.value < records_.size());
  QueryRecord& r = records_[id.value];
  if (r.metadataAt || when >= r.expiresAt() || when < r.issuedAt) return;
  r.metadataAt = when;
}

void MetricsCollector::markFileDelivered(QueryId id, SimTime when) {
  assert(id.value < records_.size());
  QueryRecord& r = records_[id.value];
  if (r.fileAt || when >= r.expiresAt() || when < r.issuedAt) return;
  r.fileAt = when;
  // Holding the complete file subsumes knowing its metadata (relevant for
  // MBT-QM, where no explicit metadata circulates).
  if (!r.metadataAt) r.metadataAt = when;
}

void MetricsCollector::onNodeGotMetadata(NodeId owner, FileId target,
                                         SimTime when) {
  forEachRecordOf(owner, target, [&](const QueryRecord& r) {
    markMetadataDelivered(r.id, when);
  });
}

void MetricsCollector::onNodeCompletedFile(NodeId owner, FileId target,
                                           SimTime when) {
  forEachRecordOf(owner, target, [&](const QueryRecord& r) {
    markFileDelivered(r.id, when);
  });
}

const MetricsCollector::QueryRecord& MetricsCollector::record(
    QueryId id) const {
  assert(id.value < records_.size());
  return records_[id.value];
}

bool MetricsCollector::inScope(const QueryRecord& r,
                               MetricScope scope) const {
  switch (scope) {
    case MetricScope::kNonAccess:
      return !r.ownerIsAccess;
    case MetricScope::kAccess:
      return r.ownerIsAccess;
    case MetricScope::kNonAccessContributors:
      return !r.ownerIsAccess && !r.ownerIsFreeRider;
    case MetricScope::kNonAccessFreeRiders:
      return !r.ownerIsAccess && r.ownerIsFreeRider;
    case MetricScope::kAll:
      return true;
  }
  return false;
}

DeliveryReport MetricsCollector::report(MetricScope scope) const {
  DeliveryReport report;
  double metadataDelaySum = 0.0;
  double fileDelaySum = 0.0;
  for (const QueryRecord& r : records_) {
    if (!inScope(r, scope)) continue;
    ++report.queries;
    if (r.metadataAt) {
      ++report.metadataDelivered;
      metadataDelaySum += static_cast<double>(*r.metadataAt - r.issuedAt);
    }
    if (r.fileAt) {
      ++report.filesDelivered;
      fileDelaySum += static_cast<double>(*r.fileAt - r.issuedAt);
    }
  }
  if (report.queries > 0) {
    report.metadataRatio = static_cast<double>(report.metadataDelivered) /
                           static_cast<double>(report.queries);
    report.fileRatio = static_cast<double>(report.filesDelivered) /
                       static_cast<double>(report.queries);
  }
  if (report.metadataDelivered > 0) {
    report.meanMetadataDelaySeconds =
        metadataDelaySum / static_cast<double>(report.metadataDelivered);
  }
  if (report.filesDelivered > 0) {
    report.meanFileDelaySeconds =
        fileDelaySum / static_cast<double>(report.filesDelivered);
  }
  return report;
}

void MetricsCollector::saveState(Serializer& out) const {
  out.u64(records_.size());
  for (const QueryRecord& r : records_) {
    out.u32(r.id.value);
    out.u32(r.owner.value);
    out.u32(r.target.value);
    out.i64(r.issuedAt);
    out.i64(r.ttl);
    out.boolean(r.ownerIsAccess);
    out.boolean(r.ownerIsFreeRider);
    out.boolean(r.metadataAt.has_value());
    out.i64(r.metadataAt.value_or(0));
    out.boolean(r.fileAt.has_value());
    out.i64(r.fileAt.value_or(0));
  }
}

void MetricsCollector::loadState(Deserializer& in) {
  records_.clear();
  index_.clear();
  const std::size_t count = in.length();
  records_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    QueryRecord r;
    r.id = QueryId{in.u32()};
    r.owner = NodeId{in.u32()};
    r.target = FileId{in.u32()};
    r.issuedAt = in.i64();
    r.ttl = in.i64();
    r.ownerIsAccess = in.boolean();
    r.ownerIsFreeRider = in.boolean();
    const bool hasMetadataAt = in.boolean();
    const SimTime metadataAt = in.i64();
    if (hasMetadataAt) r.metadataAt = metadataAt;
    const bool hasFileAt = in.boolean();
    const SimTime fileAt = in.i64();
    if (hasFileAt) r.fileAt = fileAt;
    records_.push_back(r);
    indexLastRecord();
  }
}

}  // namespace hdtn::core
