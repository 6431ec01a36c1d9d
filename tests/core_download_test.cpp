#include "src/core/download.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/download_planner.hpp"

namespace hdtn::core {
namespace {

struct Fixture {
  std::vector<PieceStore> stores;
  std::vector<CreditLedger> ledgers;
  std::vector<std::vector<FileId>> wantedStorage;
  std::vector<DownloadPeer> peers;
  std::map<FileId, double> popularity;

  explicit Fixture(std::size_t n) : stores(n), ledgers(n), wantedStorage(n) {
    for (std::size_t i = 0; i < n; ++i) {
      DownloadPeer peer;
      peer.id = NodeId(static_cast<std::uint32_t>(i));
      peer.pieces = &stores[i];
      peer.credits = &ledgers[i];
      peers.push_back(peer);
    }
  }

  void give(std::size_t peer, std::uint32_t file, std::uint32_t pieceCount,
            std::initializer_list<std::uint32_t> pieces, double pop) {
    stores[peer].registerFile(FileId(file), pieceCount);
    for (auto p : pieces) stores[peer].addPiece(FileId(file), p);
    popularity[FileId(file)] = pop;
  }

  // DownloadPeer::wanted is a view; the fixture owns the backing storage.
  void want(std::size_t peer, std::initializer_list<std::uint32_t> files) {
    for (auto f : files) wantedStorage[peer].push_back(FileId(f));
    peers[peer].wanted = wantedStorage[peer];
  }

  PopularityFn popularityFn() const {
    return [this](FileId f) {
      auto it = popularity.find(f);
      return it == popularity.end() ? 0.0 : it->second;
    };
  }
};

// One contact's plan through the mode registry, as the engine asks for it.
DownloadPlan planBroadcast(std::span<const DownloadPeer> peers,
                           const PopularityFn& popularityOf, int budget,
                           Scheduling scheduling,
                           PushOrder pushOrder = PushOrder::kPopularity) {
  DownloadRequest request;
  request.peers = peers;
  request.popularityOf = &popularityOf;
  request.budgetPieces = budget;
  request.pushOrder = pushOrder;
  return downloadModeInfo(DownloadMode::kBroadcast, scheduling)
      .planner->plan(request);
}

std::vector<PieceTransfer> planPairwise(std::span<const DownloadPeer> peers,
                                        const PopularityFn& popularityOf,
                                        int budgetPerPair) {
  DownloadRequest request;
  request.peers = peers;
  request.popularityOf = &popularityOf;
  request.budgetPieces = budgetPerPair;
  return downloadModeInfo(DownloadMode::kPairwise, Scheduling::kCooperative)
      .planner->plan(request)
      .transfers;
}

TEST(PlanDownload, EmptyCases) {
  Fixture f(2);
  EXPECT_TRUE(
      planBroadcast(f.peers, f.popularityFn(), 0, Scheduling::kCooperative)
          .empty());
  std::vector<DownloadPeer> solo{f.peers[0]};
  EXPECT_TRUE(
      planBroadcast(solo, f.popularityFn(), 5, Scheduling::kCooperative)
          .empty());
  EXPECT_TRUE(
      planBroadcast(f.peers, f.popularityFn(), 5, Scheduling::kCooperative)
          .empty());  // nothing held
}

TEST(PlanDownload, RequestedPiecesFirst) {
  Fixture f(2);
  f.give(0, 1, 1, {0}, 0.05);  // wanted by peer 1
  f.give(0, 2, 1, {0}, 0.95);  // unwanted but popular
  f.want(1, {1});
  const auto plan =
      planBroadcast(f.peers, f.popularityFn(), 2, Scheduling::kCooperative);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].file, FileId(1));
  EXPECT_EQ(plan[0].phase, 1);
  EXPECT_EQ(std::vector<NodeId>(plan[0].requesters.begin(),
                                plan[0].requesters.end()),
            (std::vector<NodeId>{NodeId(1)}));
  EXPECT_EQ(plan[1].file, FileId(2));
  EXPECT_EQ(plan[1].phase, 2);
}

TEST(PlanDownload, MoreRequestersWinWithinPhaseOne) {
  Fixture f(3);
  f.give(0, 1, 1, {0}, 0.9);
  f.give(0, 2, 1, {0}, 0.1);
  f.want(1, {2});
  f.want(2, {2});
  const auto plan =
      planBroadcast(f.peers, f.popularityFn(), 1, Scheduling::kCooperative);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].file, FileId(2));
}

TEST(PlanDownload, PiecesOfFileFlowInIndexOrder) {
  Fixture f(2);
  f.give(0, 1, 3, {0, 1, 2}, 0.5);
  f.want(1, {1});
  const auto plan =
      planBroadcast(f.peers, f.popularityFn(), 3, Scheduling::kCooperative);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].piece, 0u);
  EXPECT_EQ(plan[1].piece, 1u);
  EXPECT_EQ(plan[2].piece, 2u);
}

TEST(PlanDownload, OnlyMissingPiecesBroadcast) {
  Fixture f(2);
  f.give(0, 1, 2, {0, 1}, 0.5);
  f.give(1, 1, 2, {0}, 0.5);  // receiver already has piece 0
  const auto plan =
      planBroadcast(f.peers, f.popularityFn(), 5, Scheduling::kCooperative);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].piece, 1u);
}

TEST(PlanDownload, SenderIsLowestIdHolder) {
  Fixture f(3);
  f.give(1, 1, 1, {0}, 0.5);
  f.give(2, 1, 1, {0}, 0.5);
  const auto plan =
      planBroadcast(f.peers, f.popularityFn(), 1, Scheduling::kCooperative);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].sender, NodeId(1));
}

TEST(PlanDownload, FreeRiderHoldingsUnavailable) {
  Fixture f(2);
  f.give(0, 1, 1, {0}, 0.9);
  f.peers[0].contributes = false;
  EXPECT_TRUE(
      planBroadcast(f.peers, f.popularityFn(), 5, Scheduling::kCooperative)
          .empty());
}

TEST(PlanDownload, TitForTatWeighsRequesterCredit) {
  Fixture f(3);
  f.give(0, 1, 1, {0}, 0.5);
  f.give(0, 2, 1, {0}, 0.5);
  f.want(1, {1});
  f.want(2, {2});
  f.ledgers[0].addCredit(NodeId(2), 100.0);
  const auto plan =
      planBroadcast(f.peers, f.popularityFn(), 1, Scheduling::kTitForTat);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].file, FileId(2));  // high-credit requester served first
}

TEST(PlanDownload, TitForTatRotatesThroughContributors) {
  Fixture f(3);
  f.give(0, 1, 1, {0}, 0.5);
  f.give(1, 2, 1, {0}, 0.5);
  f.give(2, 3, 1, {0}, 0.5);
  const auto plan =
      planBroadcast(f.peers, f.popularityFn(), 3, Scheduling::kTitForTat);
  ASSERT_EQ(plan.size(), 3u);
  std::set<NodeId> senders;
  for (const auto& b : plan) senders.insert(b.sender);
  EXPECT_EQ(senders.size(), 3u);
}

TEST(PlanDownload, PopularityOnlyIgnoresRequests) {
  Fixture f(2);
  f.give(0, 1, 1, {0}, 0.1);
  f.give(0, 2, 1, {0}, 0.9);
  f.want(1, {1});
  const auto plan =
      planBroadcast(f.peers, f.popularityFn(), 1, Scheduling::kPopularityOnly);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].file, FileId(2));
}

TEST(PlanDownload, RarestFirstPushOrder) {
  Fixture f(3);
  // File 1: popular but held by two members; file 2: unpopular, one holder.
  f.give(0, 1, 1, {0}, 0.9);
  f.give(1, 1, 1, {0}, 0.9);
  f.give(0, 2, 1, {0}, 0.1);
  const auto popularityPlan = planBroadcast(
      f.peers, f.popularityFn(), 1, Scheduling::kCooperative,
      PushOrder::kPopularity);
  ASSERT_EQ(popularityPlan.size(), 1u);
  EXPECT_EQ(popularityPlan[0].file, FileId(1));
  const auto rarestPlan = planBroadcast(
      f.peers, f.popularityFn(), 1, Scheduling::kCooperative,
      PushOrder::kRarestFirst);
  ASSERT_EQ(rarestPlan.size(), 1u);
  EXPECT_EQ(rarestPlan[0].file, FileId(2));  // fewest holders wins
}

TEST(PlanDownload, RarestFirstDoesNotOverrideRequestPhase) {
  Fixture f(3);
  f.give(0, 1, 1, {0}, 0.5);  // requested by peer 2
  f.give(0, 2, 1, {0}, 0.5);  // rarer? same holders; unrequested
  f.give(1, 2, 1, {0}, 0.5);  // file 2 now has MORE holders
  f.want(2, {1});
  const auto plan = planBroadcast(f.peers, f.popularityFn(), 1,
                                  Scheduling::kCooperative,
                                  PushOrder::kRarestFirst);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].file, FileId(1));  // requests still come first
}

// --- pairwise baseline ----------------------------------------------------

TEST(PlanPairwiseDownload, PairsExchangeMutuallyMissingPieces) {
  Fixture f(2);
  f.give(0, 1, 1, {0}, 0.5);
  f.give(1, 2, 1, {0}, 0.5);
  const auto plan = planPairwise(f.peers, f.popularityFn(), 4);
  ASSERT_EQ(plan.size(), 2u);
  std::set<NodeId> senders;
  for (const auto& t : plan) senders.insert(t.sender);
  EXPECT_EQ(senders.size(), 2u);
}

TEST(PlanPairwiseDownload, RequestedFirstPerPair) {
  Fixture f(2);
  f.give(0, 1, 1, {0}, 0.05);
  f.give(0, 2, 1, {0}, 0.95);
  f.want(1, {1});
  const auto plan = planPairwise(f.peers, f.popularityFn(), 1);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].file, FileId(1));
  EXPECT_TRUE(plan[0].requested);
}

TEST(PlanPairwiseDownload, OddMemberIdles) {
  Fixture f(3);
  f.give(0, 1, 1, {0}, 0.5);
  f.give(1, 2, 1, {0}, 0.5);
  f.give(2, 3, 1, {0}, 0.5);
  const auto plan = planPairwise(f.peers, f.popularityFn(), 10);
  // Members 0 and 1 pair up; member 2 has no link.
  for (const auto& t : plan) {
    EXPECT_NE(t.sender, NodeId(2));
    EXPECT_NE(t.receiver, NodeId(2));
  }
}

TEST(PlanPairwiseDownload, BudgetPerPair) {
  Fixture f(2);
  f.give(0, 1, 5, {0, 1, 2, 3, 4}, 0.5);
  const auto plan = planPairwise(f.peers, f.popularityFn(), 2);
  EXPECT_EQ(plan.size(), 2u);
}

// Broadcast efficiency property: with one holder and k receivers, broadcast
// needs 1 transmission where pairwise needs at least k.
class BroadcastAdvantageSweep : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastAdvantageSweep, OneTransmissionServesAllReceivers) {
  const int receivers = GetParam();
  Fixture f(static_cast<std::size_t>(receivers) + 1);
  f.give(0, 1, 1, {0}, 0.5);
  for (int i = 1; i <= receivers; ++i) {
    f.want(static_cast<std::size_t>(i), {1});
  }
  const auto plan =
      planBroadcast(f.peers, f.popularityFn(), 100, Scheduling::kCooperative);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].requesters.size(), static_cast<std::size_t>(receivers));
}

INSTANTIATE_TEST_SUITE_P(Receivers, BroadcastAdvantageSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace hdtn::core
