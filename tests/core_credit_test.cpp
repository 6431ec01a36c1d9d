#include "src/core/credit.hpp"

#include <gtest/gtest.h>

#include <string>

#include "src/util/random.hpp"
#include "src/util/serialize.hpp"
#include "tests/reference_oracles.hpp"

namespace hdtn::core {
namespace {

TEST(CreditLedger, UnknownPeerHasZeroCredit) {
  CreditLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.credit(NodeId(1)), 0.0);
  EXPECT_EQ(ledger.knownPeers(), 0u);
}

TEST(CreditLedger, RequestedCreditIsFive) {
  // Paper Section IV-B: +5 for a requested metadata.
  CreditLedger ledger;
  ledger.onReceivedRequested(NodeId(1));
  EXPECT_DOUBLE_EQ(ledger.credit(NodeId(1)), 5.0);
  EXPECT_DOUBLE_EQ(kRequestedCredit, 5.0);
}

TEST(CreditLedger, UnrequestedCreditIsPopularity) {
  CreditLedger ledger;
  ledger.onReceivedUnrequested(NodeId(2), 0.35);
  EXPECT_DOUBLE_EQ(ledger.credit(NodeId(2)), 0.35);
}

TEST(CreditLedger, CreditsAccumulate) {
  CreditLedger ledger;
  ledger.onReceivedRequested(NodeId(1));
  ledger.onReceivedRequested(NodeId(1));
  ledger.onReceivedUnrequested(NodeId(1), 0.5);
  EXPECT_DOUBLE_EQ(ledger.credit(NodeId(1)), 10.5);
}

TEST(CreditLedger, AddCreditDirect) {
  CreditLedger ledger;
  ledger.addCredit(NodeId(3), -2.0);
  EXPECT_DOUBLE_EQ(ledger.credit(NodeId(3)), -2.0);
}

TEST(CreditLedger, RankingSortedByCreditThenId) {
  CreditLedger ledger;
  ledger.addCredit(NodeId(5), 1.0);
  ledger.addCredit(NodeId(2), 8.0);
  ledger.addCredit(NodeId(9), 8.0);
  const auto ranking = ledger.ranking();
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking[0].first, NodeId(2));  // tie broken by smaller id
  EXPECT_EQ(ranking[1].first, NodeId(9));
  EXPECT_EQ(ranking[2].first, NodeId(5));
}

TEST(CreditLedger, ContributorOutranksFreeRider) {
  // The incentive property in miniature: a peer that sent us requested
  // items outweighs one that only pushed unpopular extras.
  CreditLedger ledger;
  ledger.onReceivedRequested(NodeId(1));           // contributor
  ledger.onReceivedUnrequested(NodeId(2), 0.05);   // barely contributes
  EXPECT_GT(ledger.credit(NodeId(1)), ledger.credit(NodeId(2)));
}

template <typename Ledger>
std::string ledgerBytes(const Ledger& ledger) {
  Serializer out;
  ledger.saveState(out);
  return out.bytes();
}

// The sorted-vector ledger against the hash-map one it replaced, over
// random operation sequences: every query and the checkpoint bytes agree
// after each step, and a save restores to the same bytes.
TEST(CreditLedger, MatchesHashMapReferenceOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    CreditLedger ledger;
    CreditLedgerReference reference;
    const auto peers = static_cast<std::uint32_t>(rng.uniformInt(1, 60));
    for (int step = 0; step < 400; ++step) {
      const NodeId peer(static_cast<std::uint32_t>(rng.uniformInt(0, peers)));
      switch (rng.uniformInt(0, 4)) {
        case 0:
          ledger.onReceivedRequested(peer);
          reference.onReceivedRequested(peer);
          break;
        case 1: {
          const double popularity = rng.uniform();
          ledger.onReceivedUnrequested(peer, popularity);
          reference.onReceivedUnrequested(peer, popularity);
          break;
        }
        case 2: {
          const double delta = rng.uniform() * 10.0 - 5.0;
          ledger.addCredit(peer, delta);
          reference.addCredit(peer, delta);
          break;
        }
        default: {
          // A restore of the current state continues identically.
          Serializer out;
          ledger.saveState(out);
          Deserializer in(out.bytes());
          CreditLedger restored;
          restored.loadState(in);
          ledger = restored;
          break;
        }
      }
      ASSERT_EQ(ledger.credit(peer), reference.credit(peer))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(ledger.knownPeers(), reference.knownPeers());
      ASSERT_EQ(ledger.ranking(), reference.ranking())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(ledgerBytes(ledger), ledgerBytes(reference))
          << "seed " << seed << " step " << step;
    }
  }
}

// A ledger section with (peer, credit) entries as given.
std::string ledgerSection(
    const std::vector<std::pair<std::uint32_t, double>>& entries) {
  Serializer out;
  out.u64(entries.size());
  for (const auto& [peer, credit] : entries) {
    out.u32(peer);
    out.f64(credit);
  }
  return out.bytes();
}

TEST(CreditLedger, LoadStateAcceptsAscendingPeers) {
  const std::string bytes = ledgerSection({{2, 1.5}, {7, 5.0}});
  Deserializer in(bytes);
  CreditLedger ledger;
  ledger.loadState(in);
  EXPECT_EQ(ledger.credit(NodeId(2)), 1.5);
  EXPECT_EQ(ledger.credit(NodeId(7)), 5.0);
  EXPECT_EQ(ledgerBytes(ledger), bytes);
}

TEST(CreditLedger, LoadStateRejectsRepeatedPeer) {
  const std::string bytes = ledgerSection({{2, 1.5}, {2, 5.0}});
  Deserializer in(bytes);
  CreditLedger ledger;
  EXPECT_THROW(ledger.loadState(in), SerializeError);
}

TEST(CreditLedger, LoadStateRejectsDescendingPeers) {
  const std::string bytes = ledgerSection({{7, 1.5}, {2, 5.0}});
  Deserializer in(bytes);
  CreditLedger ledger;
  EXPECT_THROW(ledger.loadState(in), SerializeError);
}

}  // namespace
}  // namespace hdtn::core
