// Deterministic fault injection for simulation runs.
//
// The paper's evaluation drives the protocols over clean traces, but the
// premise of store-carry-forward — an unreliable, intermittent edge — only
// bites when transmissions fail. This subsystem models four fault classes:
//
//   * message loss        — a broadcast frame misses one receiver;
//   * contact truncation  — a contact ends early, shrinking its budgets;
//   * piece corruption    — a piece payload arrives damaged and is caught
//                           by the SHA-1 piece checksum carried in the
//                           metadata (the paper's field (e)), so the
//                           receiver drops it and re-requests later;
//   * node churn          — a node is switched off for whole intervals
//                           during which it neither transmits nor receives.
//
// Determinism: a FaultPlan is seeded from the engine's RNG stream
// (Rng::fork), and every fault class draws from its *own* forked child
// stream, so runs stay byte-identical per seed and enabling one fault class
// never perturbs the decisions of another. Churn down-intervals are fully
// precomputed at construction; loss/truncation/corruption draws happen in
// simulation-event execution order, which the engine guarantees is the same
// for run(), runUntil(), and step() drives. With every rate at zero the
// engine does not construct a plan at all (FaultParams::enabled() is
// false): the clean path draws nothing and stays byte-identical to a build
// without fault support.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/random.hpp"
#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn::faults {

/// Which fault class fired; carried in the `extra` field of
/// obs::SimEventType::kFaultInjected events.
enum class FaultKind : std::uint32_t {
  kMessageLoss = 1,
  kContactTruncation = 2,
  kPieceCorruption = 3,
  kNodeChurn = 4,
};


struct FaultParams {
  /// Probability that one deliverable message (a metadata record or a
  /// piece, per receiver) is lost inside a DTN contact.
  double messageLossRate = 0.0;
  /// Probability that a contact is truncated. A truncated contact keeps a
  /// uniform fraction of its per-contact budgets drawn from
  /// [truncationKeepMin, truncationKeepMax].
  double contactTruncationRate = 0.0;
  double truncationKeepMin = 0.2;
  double truncationKeepMax = 0.8;
  /// Probability that a received piece is corrupted in flight. Corrupt
  /// pieces fail the SHA-1 checksum carried in the held metadata, never
  /// enter the PieceStore, and are re-requested at later contacts.
  double pieceCorruptionRate = 0.0;
  /// Long-run fraction of time each node spends switched off (churn).
  /// Down/up intervals alternate with exponentially distributed lengths.
  double churnDownFraction = 0.0;
  /// Mean length of one down interval (seconds).
  Duration churnMeanDowntime = 6 * kHour;

  /// True when any fault class can fire. The engine only constructs (and
  /// seeds) a FaultPlan for enabled params, so an all-zero configuration
  /// is byte-identical to a run without fault support.
  [[nodiscard]] bool enabled() const;

  /// One descriptive message per violation (empty when valid): rates in
  /// [0, 1], churnDownFraction in [0, 1), keep bounds ordered inside
  /// [0, 1], positive mean downtime when churn is on. The rules are rows
  /// of the parameter table (src/core/params.cpp).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// The materialized fault schedule of one run. Query methods that model
/// channel noise (contactKeepFactor, dropMessage, corruptPiece) consume
/// draws and must be called in simulation order; churn queries are pure
/// lookups into the precomputed interval table.
class FaultPlan {
 public:
  struct DownInterval {
    SimTime start = 0;
    SimTime end = 0;  ///< exclusive; clamped to the run horizon
  };

  /// `rng` must be forked off the engine stream; `horizon` bounds churn
  /// interval generation (normally the trace end time).
  FaultPlan(const FaultParams& params, Rng rng, std::size_t nodeCount,
            SimTime horizon);

  [[nodiscard]] const FaultParams& params() const { return params_; }

  /// Fraction of the contact's budgets that survives: 1.0 when the contact
  /// is not truncated, otherwise uniform in [keepMin, keepMax]. One draw
  /// per processed contact.
  [[nodiscard]] double contactKeepFactor();

  /// True when the next deliverable message is lost. One draw per
  /// deliverable (message, receiver) pair; no draw when the rate is zero.
  [[nodiscard]] bool dropMessage();

  /// True when the next received piece is corrupted (and will be rejected
  /// by its checksum). No draw when the rate is zero.
  [[nodiscard]] bool corruptPiece();

  /// True when `node` is inside one of its precomputed down intervals.
  [[nodiscard]] bool isDown(NodeId node, SimTime now) const;

  /// Precomputed down intervals of `node`, ascending; empty without churn.
  [[nodiscard]] const std::vector<DownInterval>& downIntervals(
      NodeId node) const;

  /// Total down intervals across all nodes (scheduling, tests).
  [[nodiscard]] std::size_t totalDownIntervals() const {
    return totalDownIntervals_;
  }

  /// Checkpoints the consumable state: the three channel stream positions.
  /// Params and churn intervals are reconstructed deterministically by the
  /// constructor and are not serialized.
  void saveState(Serializer& out) const;
  void loadState(Deserializer& in);

 private:
  FaultParams params_;
  Rng truncationRng_;
  Rng lossRng_;
  Rng corruptionRng_;
  std::vector<std::vector<DownInterval>> down_;
  std::size_t totalDownIntervals_ = 0;
};

}  // namespace hdtn::faults
