// Deterministic Byzantine adversaries for simulation runs.
//
// The random fault classes in faults.hpp model an unreliable channel; this
// subsystem models nodes that lie on purpose. A configurable fraction of
// the non-access population turns Byzantine and mounts typed attacks:
//
//   * coded-frame pollution — a Byzantine sender emits well-formed coded
//     frames whose coefficients/payload are junk. One polluted frame folded
//     into a Gauss-Jordan decoder poisons the whole generation (the classic
//     network-coding pollution attack);
//   * piece lies           — a Byzantine sender replaces a named piece's
//     payload and forges the accompanying checksum; the receiver's SHA-1
//     verification against the *held metadata* still catches it, but the
//     transfer slot is burnt;
//   * false summaries      — a Byzantine receiver advertises an empty Bloom
//     summary during anti-entropy repair, soliciting pushes of data it
//     already holds and burning the repair budget;
//   * ack spoofing         — a Byzantine member injects bogus loss reports
//     into the retransmission queue, starving the per-contact retransmit
//     budget with redeliveries of frames nobody lost;
//   * coordinator abuse    — a Byzantine clique coordinator silently drops
//     a fraction of the broadcasts the download planner scheduled.
//
// Determinism follows the fault-plan discipline exactly: the engine forks
// one adversary stream off its root RNG only when the adversary is enabled,
// and every attack class draws from its own forked child stream, so runs
// stay byte-identical per seed, enabling one attack never perturbs another,
// and a disabled adversary is byte-identical to a build without adversary
// support. Byzantine membership is chosen by the engine from the same role
// shuffle that assigns access nodes, free-riders, and forgers — it consumes
// no extra draws and is reconstructed (not serialized) on resume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/random.hpp"
#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn::faults {

/// Which attack fired; carried in the `extra` field of
/// obs::SimEventType::kAttackInjected events. Values are single bits so a
/// set of enabled attacks is a plain mask.
enum class AttackKind : std::uint32_t {
  kPollution = 1u << 0,
  kPieceLie = 1u << 1,
  kFalseSummary = 1u << 2,
  kAckSpoof = 1u << 3,
  kCoordinator = 1u << 4,
};

/// Every attack bit set (the default attack mask).
inline constexpr std::uint32_t kAllAttacks =
    static_cast<std::uint32_t>(AttackKind::kPollution) |
    static_cast<std::uint32_t>(AttackKind::kPieceLie) |
    static_cast<std::uint32_t>(AttackKind::kFalseSummary) |
    static_cast<std::uint32_t>(AttackKind::kAckSpoof) |
    static_cast<std::uint32_t>(AttackKind::kCoordinator);


/// Parses a comma-separated attack list ("pollution,ack-spoof", or "all")
/// into a mask. Returns false and leaves *mask untouched on an unknown
/// name; *error (optional) receives the offending token.
[[nodiscard]] bool parseAttackMask(const std::string& text,
                                   std::uint32_t* mask,
                                   std::string* error = nullptr);

/// Renders a mask back into the canonical comma-separated list ("all" when
/// every bit is set, "none" when empty). Round-trips with parseAttackMask.
[[nodiscard]] std::string attackMaskName(std::uint32_t mask);

struct AdversaryParams {
  /// Fraction of the *non-access* population that turns Byzantine.
  /// Byzantine nodes are drawn from honest (non-free-riding, non-forging)
  /// non-access nodes, so the adversary composes with the paper's existing
  /// misbehavior models instead of overlapping them.
  double byzantineFraction = 0.0;
  /// Mask of enabled AttackKind bits (default: all attacks).
  std::uint32_t attacks = kAllAttacks;

  /// True when any Byzantine node can exist and act. The engine only
  /// constructs (and seeds) an AdversaryPlan for enabled params, so the
  /// defaults are byte-identical to a run without adversary support.
  [[nodiscard]] bool enabled() const {
    return byzantineFraction > 0.0 && attacks != 0;
  }

  /// One descriptive message per violation (empty when valid):
  /// byzantineFraction in [0, 1], attacks within the known mask
  /// (src/core/params.cpp).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// The materialized adversary of one run: who is Byzantine, and the
/// per-attack decision streams. Decision methods consume draws and must be
/// called in simulation order (the same discipline as FaultPlan's channel
/// queries); membership queries are pure bitmap lookups.
class AdversaryPlan {
 public:
  /// `rng` must be forked off the engine stream.
  AdversaryPlan(const AdversaryParams& params, Rng rng);

  [[nodiscard]] const AdversaryParams& params() const { return params_; }

  /// Installs the Byzantine membership chosen by the engine's role shuffle.
  /// Deterministic per seed; called once from setup and again on resume.
  void setByzantine(const std::vector<NodeId>& nodes, std::size_t nodeCount);

  [[nodiscard]] bool isByzantine(NodeId node) const {
    return node.value < byzantine_.size() && byzantine_[node.value] != 0;
  }
  [[nodiscard]] std::size_t byzantineCount() const { return byzantineCount_; }

  [[nodiscard]] bool attackEnabled(AttackKind kind) const {
    return (params_.attacks & static_cast<std::uint32_t>(kind)) != 0;
  }

  /// True when a Byzantine sender pollutes the next coded frame it emits.
  /// One draw per Byzantine-sent coded frame.
  [[nodiscard]] bool pollutesFrame();

  /// True when a Byzantine sender lies about the next named piece it was
  /// scheduled to send. One draw per Byzantine-sent piece transfer.
  [[nodiscard]] bool liesAboutPiece();

  /// True when a Byzantine repair receiver forges (empties) its next Bloom
  /// summary. One draw per Byzantine repair-round participation.
  [[nodiscard]] bool forgesSummary();

  /// Number of bogus loss reports a Byzantine member injects into this
  /// contact's retransmission queue (0–3). One draw per Byzantine member
  /// per recovering contact.
  [[nodiscard]] std::uint32_t spoofedAckClaims();

  /// True when a Byzantine coordinator silently drops the next planned
  /// broadcast. One draw per planned broadcast under a Byzantine
  /// coordinator.
  [[nodiscard]] bool dropsPlannedBroadcast();

  /// Checkpoints the consumable state: the five attack stream positions.
  /// Params and Byzantine membership are reconstructed deterministically
  /// and are not serialized.
  void saveState(Serializer& out) const;
  void loadState(Deserializer& in);

 private:
  AdversaryParams params_;
  Rng pollutionRng_;
  Rng pieceLieRng_;
  Rng summaryRng_;
  Rng ackSpoofRng_;
  Rng coordinatorRng_;
  std::vector<std::uint8_t> byzantine_;
  std::size_t byzantineCount_ = 0;
};

}  // namespace hdtn::faults
