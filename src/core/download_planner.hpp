// The pluggable download-planner API and the single download-mode registry.
//
// Every download mode — cooperative, tit-for-tat, popularity-only,
// pairwise, coded — is one DownloadPlanner implementation plus one registry
// row. The registry is the only place a mode is spelled out: the engine
// resolves its planner from it, Scenario::apply and the hdtn_sim flags
// parse mode names through it, and the benches label series with its
// canonical names — so the string mapping round-trips by construction and
// adding a mode is one registration, not a switch per call site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/download.hpp"

namespace hdtn::core {

/// Working arrays of the named-piece broadcast planners (cooperative,
/// popularity-only, tit-for-tat), reused from contact to contact so that
/// planning allocates nothing once they have grown. The Engine owns one and
/// passes it with every request, as it owns ContactViews; the registry's
/// planner objects keep no state, so every ShardedEngine thread shares
/// them. The contents mean nothing between requests.
struct DownloadScratch {
  /// One held piece of one member; a clique's pieces merge into
  /// (file, piece, member) order.
  struct HeldPiece {
    FileId file;
    std::uint32_t piece = 0;
    std::uint32_t member = 0;  ///< index into DownloadRequest::peers
  };
  /// One (file, member) pair of the members' want lists.
  struct Want {
    FileId file;
    std::uint32_t member = 0;
  };
  /// A piece some contributing member holds and some member lacks.
  struct Candidate {
    FileId file;
    std::uint32_t piece = 0;
    Popularity popularity = 0.0;
    std::uint32_t holders = 0;  ///< contributing members holding it
    NodeId sender;              ///< the lowest contributing holder id
    /// Requesters (members that want the file and lack the piece, in
    /// member order): requesters[requesterBegin, +requesterCount).
    std::uint32_t requesterBegin = 0;
    std::uint32_t requesterCount = 0;
  };
  /// A planned broadcast: its sender and candidate index.
  struct Pick {
    NodeId sender;
    std::uint32_t candidate = 0;
  };

  std::vector<HeldPiece> held;
  std::vector<HeldPiece> mergeBuffer;
  std::vector<std::size_t> runs;
  std::vector<Want> wants;
  std::vector<Candidate> candidates;
  /// Contributing-holder bitmask of candidate c over the members: words
  /// [c * rowWords, (c + 1) * rowWords), bit i = peers[i].
  std::vector<std::uint64_t> holderRows;
  std::size_t rowWords = 0;
  std::vector<NodeId> requesters;
  /// One (file, piece)'s holder, contributor and want rows while grouping.
  std::vector<std::uint64_t> groupRows;
  std::vector<std::uint32_t> order;
  std::vector<Pick> picks;
  /// Tit-for-tat: the contributors, their turn order as member indices,
  /// and one bit per candidate already sent.
  std::vector<NodeId> contributors;
  std::vector<std::uint32_t> turns;
  std::vector<std::uint64_t> sent;
};

/// Everything a planner may consult for one contact. Planners are pure:
/// same request, same plan.
struct DownloadRequest {
  std::span<const DownloadPeer> peers;
  const PopularityFn* popularityOf = nullptr;
  int budgetPieces = 0;
  PushOrder pushOrder = PushOrder::kPopularity;
  /// Coded-mode knobs; ignored by the named-piece planners.
  CodedParams coded;
  /// When set, the planner emits its kDownloadPlanned event at `now`.
  obs::EngineObserver* observer = nullptr;
  SimTime now = 0;
  /// Working arrays to reuse; when null, the planner uses its own for this
  /// request.
  DownloadScratch* scratch = nullptr;
};

/// One download scheduling discipline. Implementations live behind the
/// registry; call sites never name a concrete planner type.
class DownloadPlanner {
 public:
  virtual ~DownloadPlanner() = default;
  [[nodiscard]] virtual DownloadPlan plan(
      const DownloadRequest& request) const = 0;
};

/// One registry row: the canonical mode name (scenario files, CLI flags,
/// bench labels, reports) and how the engine runs it.
struct DownloadModeInfo {
  const char* name;
  DownloadMode mode;
  /// The scheduling a broadcast-mode row selects; for pairwise/coded rows
  /// this is the value the name parses back to (cooperative), so that
  /// parse -> format round-trips for every row.
  Scheduling scheduling;
  const DownloadPlanner* planner;
};

/// All registered modes, in registration order.
[[nodiscard]] std::span<const DownloadModeInfo> downloadModeRegistry();

/// Row for a canonical name, or nullptr. Names: coop, tft, popularity,
/// pairwise, coded.
[[nodiscard]] const DownloadModeInfo* findDownloadMode(std::string_view name);

/// Row for an engine configuration (mode + scheduling). Every valid
/// configuration has exactly one row.
[[nodiscard]] const DownloadModeInfo& downloadModeInfo(DownloadMode mode,
                                                      Scheduling scheduling);

/// Canonical spelling of an engine configuration — the inverse of
/// findDownloadMode: findDownloadMode(downloadModeName(m, s)) names the
/// same planner.
[[nodiscard]] inline const char* downloadModeName(DownloadMode mode,
                                                 Scheduling scheduling) {
  return downloadModeInfo(mode, scheduling).name;
}

}  // namespace hdtn::core
