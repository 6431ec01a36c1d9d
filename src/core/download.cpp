// Legacy free-function entry points, kept as thin wrappers so existing
// call sites and tests keep working; the actual scheduling disciplines live
// behind the DownloadPlanner registry (download_planner.cpp).
#include "src/core/download.hpp"

#include <utility>

#include "src/core/download_planner.hpp"

namespace hdtn::core {

DownloadPlan planDownload(std::span<const DownloadPeer> peers,
                          const PopularityFn& popularityOf, int budgetPieces,
                          Scheduling scheduling, PushOrder pushOrder,
                          obs::EngineObserver* observer, SimTime now) {
  DownloadRequest request;
  request.peers = peers;
  request.popularityOf = &popularityOf;
  request.budgetPieces = budgetPieces;
  request.pushOrder = pushOrder;
  request.observer = observer;
  request.now = now;
  return downloadModeInfo(DownloadMode::kBroadcast, scheduling)
      .planner->plan(request);
}

std::vector<PieceTransfer> planPairwiseDownload(
    std::span<const DownloadPeer> peers, const PopularityFn& popularityOf,
    int budgetPerPair, obs::EngineObserver* observer, SimTime now) {
  DownloadRequest request;
  request.peers = peers;
  request.popularityOf = &popularityOf;
  request.budgetPieces = budgetPerPair;
  request.observer = observer;
  request.now = now;
  return std::move(downloadModeInfo(DownloadMode::kPairwise,
                                    Scheduling::kCooperative)
                       .planner->plan(request)
                       .transfers);
}

}  // namespace hdtn::core
