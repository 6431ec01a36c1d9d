#include "src/core/reputation.hpp"

#include <algorithm>

namespace hdtn::core {
namespace {

/// The suspicion one anomaly of `kind` adds (docs/ADVERSARY.md).
double evidenceWeight(EvidenceKind kind) {
  switch (kind) {
    case EvidenceKind::kFailedVerification: return 1.0;
    case EvidenceKind::kSummaryMismatch: return 0.5;
    case EvidenceKind::kAckAnomaly: return 0.15;
    case EvidenceKind::kBroadcastSuppressed: return 0.5;
  }
  return 0.0;
}

}  // namespace

void ReputationTracker::decay(Entry& entry, SimTime now) const {
  if (now <= entry.lastUpdate) return;
  const double elapsedDays =
      static_cast<double>(now - entry.lastUpdate) / static_cast<double>(kDay);
  entry.suspicion =
      std::max(0.0, entry.suspicion - kSuspicionDecayPerDay * elapsedDays);
  entry.lastUpdate = now;
}

bool ReputationTracker::addEvidence(NodeId node, EvidenceKind kind,
                                    SimTime now) {
  Entry& entry = entries_[node.value];
  decay(entry, now);
  entry.suspicion += evidenceWeight(kind);
  if (!entry.quarantined && entry.suspicion >= params_.quarantineThreshold) {
    entry.quarantined = true;
    return true;
  }
  return false;
}

bool ReputationTracker::isQuarantined(NodeId node, SimTime now,
                                      bool* released) {
  auto it = entries_.find(node.value);
  if (it == entries_.end()) return false;
  Entry& entry = it->second;
  if (!entry.quarantined) return false;
  decay(entry, now);
  // Hysteresis: release only once decay brings suspicion well under the
  // entry threshold, so a node on the boundary cannot flap per contact.
  if (entry.suspicion < params_.quarantineThreshold * 0.5) {
    entry.quarantined = false;
    if (released) *released = true;
    return false;
  }
  return true;
}

double ReputationTracker::suspicion(NodeId node, SimTime now) const {
  auto it = entries_.find(node.value);
  if (it == entries_.end()) return 0.0;
  Entry entry = it->second;
  decay(entry, now);
  return entry.suspicion;
}

std::size_t ReputationTracker::quarantinedCount() const {
  std::size_t count = 0;
  for (const auto& [node, entry] : entries_) {
    if (entry.quarantined) ++count;
  }
  return count;
}

void ReputationTracker::saveState(Serializer& out) const {
  out.u64(entries_.size());
  for (const auto& [node, entry] : entries_) {
    out.u32(node);
    out.f64(entry.suspicion);
    out.u64(static_cast<std::uint64_t>(entry.lastUpdate));
    out.u8(entry.quarantined ? 1 : 0);
  }
}

void ReputationTracker::loadState(Deserializer& in) {
  entries_.clear();
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t node = in.u32();
    Entry entry;
    entry.suspicion = in.f64();
    entry.lastUpdate = static_cast<SimTime>(in.u64());
    entry.quarantined = in.u8() != 0;
    entries_[node] = entry;
  }
}

}  // namespace hdtn::core
