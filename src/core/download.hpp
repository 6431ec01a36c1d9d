// Broadcast-based file download (paper Section V).
//
// A contact's clique schedules piece *broadcasts*: one sender at a time, all
// other members silent receivers.
//
//   Cooperative (V-A): a coordinator (lowest id) orders pieces: phase 1 —
//   pieces requested by clique members, more requesters first, ties by
//   decreasing file popularity; phase 2 — other pieces by decreasing
//   popularity.
//
//   Tit-for-tat (V-B): no coordinator (a selfish one could cheat); members
//   broadcast in an agreed pseudo-random cyclic order seeded by the sum of
//   the ids, each weighing pieces by the sum of the requesters' credits.
//
// A pairwise baseline (the transmission mode of all prior DTN content
// distribution per Section II) is provided for comparison: members are
// matched into disjoint pairs, and each pair exchanges pieces over a
// unicast link with a per-pair budget.
//
// A network-coded mode (docs/CODING.md) broadcasts RLNC combinations over a
// file's pieces instead of named pieces; receivers accumulate rank and
// decode at full rank, so losses cost redundancy instead of replay.
//
// The planners behind these modes implement the DownloadPlanner interface
// (download_planner.hpp) and are resolved from a single mode registry:
// downloadModeInfo(mode, scheduling).planner->plan(request).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/core/credit.hpp"
#include "src/core/discovery.hpp"  // Scheduling
#include "src/core/piece_store.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

/// How pieces move during a contact (one registry entry per mode spelling;
/// broadcast covers the coop/tft/popularity schedulings).
enum class DownloadMode {
  kBroadcast,  ///< the paper's clique broadcasts (Section V)
  kPairwise,   ///< disjoint-pair unicast baseline (Section II regime)
  kCoded,      ///< RLNC generation broadcasts (docs/CODING.md)
};

/// Knobs of the coded download mode (docs/CODING.md).
struct CodedParams {
  /// Extra coded frames per unit of receiver deficit: a file k pieces short
  /// at the worst receiver is granted ceil(k * (1 + redundancy)) frames.
  double redundancy = 0.5;
  /// Probability that a coefficient is nonzero (sparse RLNC).
  double sparsity = 0.5;

  /// One descriptive message per violation (empty when valid): redundancy
  /// in [0, 4], sparsity in (0, 1] (src/core/params.cpp).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// One clique member's state as seen by the download planner.
struct DownloadPeer {
  NodeId id;
  const PieceStore* pieces = nullptr;
  /// Files this member is actively downloading (it holds a matching
  /// metadata for an unsatisfied query); advertised as URIs in hellos.
  /// A view over the engine's per-contact storage
  /// (ContactViews::wantedFiles) — planners never copy the list.
  std::span<const FileId> wanted;
  const CreditLedger* credits = nullptr;
  bool contributes = true;
};

/// Popularity oracle: the engine resolves it from catalog/metadata.
using PopularityFn = std::function<Popularity(FileId)>;

/// Ordering of the push phase (and of ties inside the requested phase).
enum class PushOrder {
  kPopularity,   ///< the paper's rule: decreasing file popularity
  kRarestFirst,  ///< BitTorrent's rule: fewest holders in the clique first
};

/// One planned piece broadcast.
struct PieceBroadcast {
  NodeId sender;
  FileId file;
  std::uint32_t piece = 0;
  /// Members that want the file and lack this piece; views the owning
  /// DownloadPlan's requester pool.
  std::span<const NodeId> requesters;
  /// 1 = requested phase, 2 = popularity push phase.
  int phase = 1;
};

/// One planned pairwise (unicast) transfer.
struct PieceTransfer {
  NodeId sender;
  NodeId receiver;
  FileId file;
  std::uint32_t piece = 0;
  bool requested = false;
};

/// One planned run of coded frames: `frames` RLNC combinations over the
/// file's generation, broadcast by `sender`. Coefficient seeds are drawn at
/// transmission time from the engine's coded stream.
struct CodedBroadcast {
  NodeId sender;
  FileId file;
  std::uint32_t generationSize = 0;  ///< k: pieces in the file
  std::uint32_t frames = 0;          ///< coded frames to transmit
  Popularity popularity = 0.0;
  /// Members actively wanting the file; views the requester pool.
  std::span<const NodeId> requesters;
};

/// What a DownloadPlanner produced for one contact. Owns the requester
/// arena its broadcast spans point into, so it is movable but not copyable.
/// Exactly one of the three lists is populated, by mode.
class DownloadPlan {
 public:
  DownloadPlan() = default;
  DownloadPlan(const DownloadPlan&) = delete;
  DownloadPlan& operator=(const DownloadPlan&) = delete;
  DownloadPlan(DownloadPlan&&) noexcept = default;
  DownloadPlan& operator=(DownloadPlan&&) noexcept = default;

  std::vector<PieceBroadcast> broadcasts;
  std::vector<PieceTransfer> transfers;
  std::vector<CodedBroadcast> coded;
  /// Arena behind every requesters span above. Appending after the spans
  /// are finalized would dangle them; planners fill it once, then publish.
  std::vector<NodeId> requesterPool;

  // Legacy conveniences: existing call sites and tests treat a broadcast
  // plan as a range of PieceBroadcasts.
  [[nodiscard]] std::size_t size() const { return broadcasts.size(); }
  [[nodiscard]] bool empty() const { return broadcasts.empty(); }
  [[nodiscard]] const PieceBroadcast& operator[](std::size_t i) const {
    return broadcasts[i];
  }
  [[nodiscard]] auto begin() const { return broadcasts.begin(); }
  [[nodiscard]] auto end() const { return broadcasts.end(); }
};

}  // namespace hdtn::core
