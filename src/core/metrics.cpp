#include "src/core/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

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
  const Stored& r = at(record);
  const std::uint64_t hash = keyHash(NodeId(r.owner), FileId(r.target));
  std::size_t pos = hash & (index_.size() - 1);
  while (index_[pos] != 0) pos = (pos + 1) & (index_.size() - 1);
  index_[pos] = (hash & kTagMask) | (record + 1);
}

void MetricsCollector::indexLastRecord() {
  if (count_ * 2 <= index_.size()) {
    placeInIndex(count_ - 1);
    return;
  }
  // Grow to double size and re-place every record in order, so records of
  // one key keep their insertion order along the probe sequence.
  index_.assign(std::max<std::size_t>(16, std::bit_ceil(count_ * 2)), 0);
  for (std::size_t i = 0; i < count_; ++i) placeInIndex(i);
}

template <typename Fn>
void MetricsCollector::forEachRecordOf(NodeId owner, FileId target, Fn&& fn) {
  if (index_.empty()) return;
  const std::uint64_t hash = keyHash(owner, target);
  for (std::size_t pos = hash & (index_.size() - 1); index_[pos] != 0;
       pos = (pos + 1) & (index_.size() - 1)) {
    if ((index_[pos] & kTagMask) != (hash & kTagMask)) continue;
    const std::size_t record = (index_[pos] & ~kTagMask) - 1;
    const Stored& r = at(record);
    if (r.owner == owner.value && r.target == target.value) {
      fn(QueryId(static_cast<std::uint32_t>(record)));
    }
  }
}

void MetricsCollector::append(const Stored& record) {
  if (count_ == chunks_.size() * kChunkRecords) {
    chunks_.push_back(std::make_unique_for_overwrite<Stored[]>(kChunkRecords));
  }
  at(count_++) = record;
  indexLastRecord();
}

QueryId MetricsCollector::registerQuery(NodeId owner, FileId target,
                                        SimTime issuedAt, Duration ttl,
                                        bool ownerIsAccess,
                                        bool ownerIsFreeRider) {
  const QueryId id(static_cast<std::uint32_t>(count_));
  append({.owner = owner.value,
          .target = target.value,
          .issuedAt = issuedAt,
          .ttl = ttl,
          .metadataAt = kNever,
          .fileAt = kNever,
          .ownerIsAccess = ownerIsAccess,
          .ownerIsFreeRider = ownerIsFreeRider});
  return id;
}

void MetricsCollector::markMetadataDelivered(QueryId id, SimTime when) {
  assert(id.value < count_);
  Stored& r = at(id.value);
  if (r.metadataAt != kNever || when >= r.expiresAt() || when < r.issuedAt) {
    return;
  }
  r.metadataAt = when;
}

void MetricsCollector::markFileDelivered(QueryId id, SimTime when) {
  assert(id.value < count_);
  Stored& r = at(id.value);
  if (r.fileAt != kNever || when >= r.expiresAt() || when < r.issuedAt) {
    return;
  }
  r.fileAt = when;
  // Holding the complete file subsumes knowing its metadata (relevant for
  // MBT-QM, where no explicit metadata circulates).
  if (r.metadataAt == kNever) r.metadataAt = when;
}

void MetricsCollector::onNodeGotMetadata(NodeId owner, FileId target,
                                         SimTime when) {
  forEachRecordOf(owner, target,
                  [&](QueryId id) { markMetadataDelivered(id, when); });
}

void MetricsCollector::onNodeCompletedFile(NodeId owner, FileId target,
                                           SimTime when) {
  forEachRecordOf(owner, target,
                  [&](QueryId id) { markFileDelivered(id, when); });
}

MetricsCollector::QueryRecord MetricsCollector::record(QueryId id) const {
  assert(id.value < count_);
  const Stored& r = at(id.value);
  QueryRecord out;
  out.id = id;
  out.owner = NodeId(r.owner);
  out.target = FileId(r.target);
  out.issuedAt = r.issuedAt;
  out.ttl = r.ttl;
  out.ownerIsAccess = r.ownerIsAccess;
  out.ownerIsFreeRider = r.ownerIsFreeRider;
  if (r.metadataAt != kNever) out.metadataAt = r.metadataAt;
  if (r.fileAt != kNever) out.fileAt = r.fileAt;
  return out;
}

bool MetricsCollector::inScope(const Stored& r, MetricScope scope) {
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
  for (std::size_t i = 0; i < count_; ++i) {
    const Stored& r = at(i);
    if (!inScope(r, scope)) continue;
    ++report.queries;
    if (r.metadataAt != kNever) {
      ++report.metadataDelivered;
      metadataDelaySum += static_cast<double>(r.metadataAt - r.issuedAt);
    }
    if (r.fileAt != kNever) {
      ++report.filesDelivered;
      fileDelaySum += static_cast<double>(r.fileAt - r.issuedAt);
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
  out.u64(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const Stored& r = at(i);
    out.u32(static_cast<std::uint32_t>(i));
    out.u32(r.owner);
    out.u32(r.target);
    out.i64(r.issuedAt);
    out.i64(r.ttl);
    out.boolean(r.ownerIsAccess);
    out.boolean(r.ownerIsFreeRider);
    out.boolean(r.metadataAt != kNever);
    out.i64(r.metadataAt != kNever ? r.metadataAt : 0);
    out.boolean(r.fileAt != kNever);
    out.i64(r.fileAt != kNever ? r.fileAt : 0);
  }
}

void MetricsCollector::loadState(Deserializer& in) {
  chunks_.clear();
  count_ = 0;
  index_.clear();
  // A delivery time, when present, is any value but the "never" marker.
  const auto time = [](bool present, SimTime value) {
    if (present && value == kNever) {
      throw SerializeError("MetricsCollector: delivery time out of range");
    }
    return present ? value : kNever;
  };
  const std::size_t count = in.length();
  for (std::size_t i = 0; i < count; ++i) {
    // The id is the record's position; saveState writes nothing else.
    const std::uint32_t id = in.u32();
    if (id != i) {
      throw SerializeError("MetricsCollector: record " + std::to_string(i) +
                           " carries id " + std::to_string(id));
    }
    Stored r{};
    r.owner = in.u32();
    r.target = in.u32();
    r.issuedAt = in.i64();
    r.ttl = in.i64();
    r.ownerIsAccess = in.boolean();
    r.ownerIsFreeRider = in.boolean();
    const bool hasMetadataAt = in.boolean();
    r.metadataAt = time(hasMetadataAt, in.i64());
    const bool hasFileAt = in.boolean();
    r.fileAt = time(hasFileAt, in.i64());
    append(r);
  }
}

}  // namespace hdtn::core
