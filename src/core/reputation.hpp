// Per-node suspicion tracking and quarantine: the defense half of the
// Byzantine adversary layer (docs/ADVERSARY.md).
//
// Honest nodes cannot see who is Byzantine; they can only observe protocol
// misbehavior. The engine turns three observable anomalies into evidence
// events against the apparent culprit:
//
//   * failed verification — a fully-ranked coded generation failed its
//     piece-hash check and was rolled back; charged to every sender whose
//     polluted frame tainted the decoder (strong evidence);
//   * summary mismatch    — an anti-entropy repair push targeted data the
//     receiver demonstrably already held, i.e. its advertised Bloom
//     summary omitted real content (medium evidence — honest Bloom
//     summaries have no false negatives);
//   * ack anomaly         — a retransmission was requested for a metadata
//     frame the requester already held (weak evidence; legitimate races
//     can produce the same signal, hence the low weight).
//
// Each kind of evidence adds a constant weight (reputation.cpp), and
// suspicion decays linearly by kSuspicionDecayPerDay, so a burst of
// anomalies quarantines a node while scattered random noise evaporates.
// Quarantine has hysteresis: a node enters at quarantineThreshold and is
// only released when decay brings suspicion under half the threshold, so a
// node on the boundary cannot flap in and out every contact. Quarantined
// peers keep *receiving* data (an honest false positive must be able to
// catch up) but are excluded from sender selection, repair service, and
// coordinator election.
//
// The tracker is deterministic (no RNG) and checkpointable; it exists only
// when ReputationParams::defense is set, so the defense is zero-cost and
// byte-identical-off.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

/// Suspicion that drains from a node per simulated day, linearly.
inline constexpr double kSuspicionDecayPerDay = 1.0;

/// What kind of anomaly the engine observed; selects the evidence weight.
enum class EvidenceKind : std::uint32_t {
  kFailedVerification = 1,
  kSummaryMismatch = 2,
  kAckAnomaly = 3,
  kBroadcastSuppressed = 4,
};

struct ReputationParams {
  /// Master switch for the defense layer (verification rollback feeds
  /// evidence in; quarantine gates senders out). Off by default.
  bool defense = false;
  /// Suspicion level at which a node is quarantined. Released again only
  /// when decay brings suspicion under threshold / 2 (hysteresis).
  double quarantineThreshold = 3.0;

  [[nodiscard]] bool enabled() const { return defense; }

  /// One descriptive message per violation (empty when valid): a positive
  /// threshold (src/core/params.cpp).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Deterministic per-node suspicion scores with lazy linear decay.
class ReputationTracker {
 public:
  explicit ReputationTracker(const ReputationParams& params)
      : params_(params) {}

  [[nodiscard]] const ReputationParams& params() const { return params_; }

  /// Charges one anomaly to `node` at time `now` (decay is applied first).
  /// Returns true when this evidence newly quarantined the node.
  bool addEvidence(NodeId node, EvidenceKind kind, SimTime now);

  /// True while `node` is quarantined. Applies lazy decay; when the decay
  /// crosses the release level the node is freed and *released (optional)
  /// is set so the caller can count/emit the release.
  [[nodiscard]] bool isQuarantined(NodeId node, SimTime now,
                                   bool* released = nullptr);

  /// Current (decayed) suspicion of `node` at `now`; 0 for unknown nodes.
  [[nodiscard]] double suspicion(NodeId node, SimTime now) const;

  /// Nodes currently marked quarantined (no decay applied; tests/stats).
  [[nodiscard]] std::size_t quarantinedCount() const;

  void saveState(Serializer& out) const;
  void loadState(Deserializer& in);

 private:
  struct Entry {
    double suspicion = 0.0;
    SimTime lastUpdate = 0;
    bool quarantined = false;
  };

  /// Applies linear decay to `entry` up to `now` (monotone clamp).
  void decay(Entry& entry, SimTime now) const;

  ReputationParams params_;
  std::map<std::uint32_t, Entry> entries_;
};

}  // namespace hdtn::core
