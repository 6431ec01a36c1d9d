// Property-based tests of the discovery and download planners: invariants
// that must hold for ANY node state, checked over randomized fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <ranges>
#include <set>
#include <unordered_set>
#include <utility>

#include "src/core/discovery.hpp"
#include "src/core/download.hpp"
#include "src/core/download_planner.hpp"
#include "src/core/internet.hpp"
#include "src/core/query.hpp"
#include "src/util/random.hpp"
#include "src/util/string_util.hpp"
#include "tests/reference_oracles.hpp"

namespace hdtn::core {
namespace {

struct RandomFixture {
  InternetServices internet;
  std::vector<MetadataStore> metadataStores;
  std::vector<PieceStore> pieceStores;
  std::vector<CreditLedger> ledgers;
  std::vector<std::vector<FileId>> wantedStorage;
  std::vector<DiscoveryPeer> discoveryPeers;
  std::vector<DownloadPeer> downloadPeers;

  RandomFixture(std::uint64_t seed, std::size_t members, int files) {
    Rng rng(seed);
    SyntheticBatchParams batch;
    batch.count = files;
    batch.publishedAt = 0;
    batch.ttl = 3 * kDay;
    batch.lambda = files / 2.0;
    publishSyntheticBatch(internet, batch, rng);

    metadataStores.resize(members);
    pieceStores.resize(members);
    ledgers.resize(members);
    wantedStorage.resize(members);
    for (std::size_t i = 0; i < members; ++i) {
      for (FileId f : internet.catalog().allFiles()) {
        if (rng.chance(0.5)) {
          metadataStores[i].add(internet.catalog().metadataFor(f));
        }
        if (rng.chance(0.4)) {
          pieceStores[i].registerFile(f, 1);
          pieceStores[i].addPiece(f, 0);
        }
      }
      DiscoveryPeer dp;
      dp.id = NodeId(static_cast<std::uint32_t>(i));
      dp.store = &metadataStores[i];
      dp.credits = &ledgers[i];
      dp.contributes = rng.chance(0.8);
      DownloadPeer lp;
      lp.id = dp.id;
      lp.pieces = &pieceStores[i];
      lp.credits = &ledgers[i];
      lp.contributes = dp.contributes;
      // Random queries / wants targeting real files.
      const int queries = static_cast<int>(rng.uniformInt(0, 3));
      for (int q = 0; q < queries; ++q) {
        const FileId target(
            static_cast<std::uint32_t>(rng.pickIndex(
                static_cast<std::size_t>(files))));
        dp.queries.push_back(
            canonicalQueryText(*internet.catalog().find(target)));
        wantedStorage[i].push_back(target);
      }
      lp.wanted = wantedStorage[i];
      for (std::size_t p = 0; p < members; ++p) {
        ledgers[i].addCredit(NodeId(static_cast<std::uint32_t>(p)),
                             rng.uniform(0.0, 10.0));
      }
      discoveryPeers.push_back(std::move(dp));
      downloadPeers.push_back(std::move(lp));
    }
  }

  [[nodiscard]] PopularityFn popularityFn() const {
    return [this](FileId f) {
      const FileInfo* info = internet.catalog().find(f);
      return info == nullptr ? 0.0 : info->popularity;
    };
  }
};

struct PropertyCase {
  std::uint64_t seed;
  Scheduling scheduling;
};

class PlannerPropertySweep : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(PlannerPropertySweep, DiscoveryInvariants) {
  const PropertyCase param = GetParam();
  RandomFixture fx(param.seed, 8, 40);
  const int budget = 12;
  const auto plan =
      planDiscovery(fx.discoveryPeers, budget, param.scheduling);

  EXPECT_LE(plan.size(), static_cast<std::size_t>(budget));
  std::set<FileId> seen;
  bool sawPhase2 = false;
  for (const MetadataBroadcast& b : plan) {
    // Each record at most once.
    EXPECT_TRUE(seen.insert(b.metadata->file).second);
    // The sender holds what it sends and contributes.
    const auto& sender = fx.discoveryPeers[b.sender.value];
    EXPECT_TRUE(sender.store->has(b.metadata->file));
    EXPECT_TRUE(sender.contributes);
    // Some receiver lacks the record.
    bool someoneLacks = false;
    for (const auto& peer : fx.discoveryPeers) {
      if (!peer.store->has(b.metadata->file)) someoneLacks = true;
    }
    EXPECT_TRUE(someoneLacks);
    // Requesters really lack it (they cannot request what they hold).
    for (NodeId r : b.requesters) {
      EXPECT_FALSE(fx.discoveryPeers[r.value].store->has(b.metadata->file));
    }
    // Phase flags consistent with requesters.
    EXPECT_EQ(b.phase, b.requesters.empty() ? 2 : 1);
    // Cooperative scheduling: once the push phase starts, no requested
    // record may follow.
    if (param.scheduling == Scheduling::kCooperative) {
      if (b.phase == 2) sawPhase2 = true;
      if (sawPhase2) {
        EXPECT_EQ(b.phase, 2);
      }
    }
  }
}

TEST_P(PlannerPropertySweep, DownloadInvariants) {
  const PropertyCase param = GetParam();
  RandomFixture fx(param.seed, 8, 40);
  const int budget = 10;
  const PopularityFn popularityOf = fx.popularityFn();
  DownloadRequest request;
  request.peers = fx.downloadPeers;
  request.popularityOf = &popularityOf;
  request.budgetPieces = budget;
  const DownloadPlan plan =
      downloadModeInfo(DownloadMode::kBroadcast, param.scheduling)
          .planner->plan(request);

  EXPECT_LE(plan.size(), static_cast<std::size_t>(budget));
  std::set<std::pair<FileId, std::uint32_t>> seen;
  for (const PieceBroadcast& b : plan) {
    EXPECT_TRUE(seen.insert({b.file, b.piece}).second);
    const auto& sender = fx.downloadPeers[b.sender.value];
    EXPECT_TRUE(sender.pieces->hasPiece(b.file, b.piece));
    EXPECT_TRUE(sender.contributes);
    for (NodeId r : b.requesters) {
      const auto& peer = fx.downloadPeers[r.value];
      EXPECT_FALSE(peer.pieces->hasPiece(b.file, b.piece));
      EXPECT_NE(std::find(peer.wanted.begin(), peer.wanted.end(), b.file),
                peer.wanted.end());
    }
  }
}

TEST_P(PlannerPropertySweep, PairwiseInvariants) {
  const PropertyCase param = GetParam();
  RandomFixture fx(param.seed, 9, 40);  // odd member count
  const PopularityFn popularityOf = fx.popularityFn();
  DownloadRequest request;
  request.peers = fx.downloadPeers;
  request.popularityOf = &popularityOf;
  request.budgetPieces = 5;
  const std::vector<PieceTransfer> plan =
      downloadModeInfo(DownloadMode::kPairwise, Scheduling::kCooperative)
          .planner->plan(request)
          .transfers;
  std::map<NodeId, std::set<NodeId>> partners;
  for (const PieceTransfer& t : plan) {
    EXPECT_NE(t.sender, t.receiver);
    const auto& sender = fx.downloadPeers[t.sender.value];
    const auto& receiver = fx.downloadPeers[t.receiver.value];
    EXPECT_TRUE(sender.pieces->hasPiece(t.file, t.piece));
    EXPECT_FALSE(receiver.pieces->hasPiece(t.file, t.piece));
    partners[t.sender].insert(t.receiver);
    partners[t.receiver].insert(t.sender);
  }
  // Matching is disjoint: every node exchanges with at most one partner.
  for (const auto& [node, peers] : partners) {
    EXPECT_LE(peers.size(), 1u) << "node " << node.value;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, PlannerPropertySweep,
    ::testing::Values(PropertyCase{1, Scheduling::kCooperative},
                      PropertyCase{2, Scheduling::kCooperative},
                      PropertyCase{3, Scheduling::kCooperative},
                      PropertyCase{4, Scheduling::kTitForTat},
                      PropertyCase{5, Scheduling::kTitForTat},
                      PropertyCase{6, Scheduling::kTitForTat},
                      PropertyCase{7, Scheduling::kPopularityOnly},
                      PropertyCase{8, Scheduling::kPopularityOnly}));

// The optimized discovery planner (indexed candidates, per-sender heaps)
// must be indistinguishable from the naive reference transcription: same
// broadcasts, same order, same requester lists, byte for byte.
void expectPlansIdentical(const std::vector<MetadataBroadcast>& optimized,
                          const std::vector<MetadataBroadcast>& reference) {
  ASSERT_EQ(optimized.size(), reference.size());
  for (std::size_t i = 0; i < optimized.size(); ++i) {
    EXPECT_EQ(optimized[i].sender, reference[i].sender) << "broadcast " << i;
    EXPECT_EQ(optimized[i].metadata, reference[i].metadata) << "broadcast "
                                                            << i;
    EXPECT_EQ(optimized[i].holder, reference[i].holder) << "broadcast " << i;
    EXPECT_EQ(optimized[i].requesters, reference[i].requesters)
        << "broadcast " << i;
    EXPECT_EQ(optimized[i].phase, reference[i].phase) << "broadcast " << i;
  }
}

class PlannerEquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PlannerEquivalenceSweep, OptimizedMatchesReferenceAllSchedulings) {
  const std::uint64_t seed = GetParam();
  // Past 64 members a holder row spans several words.
  for (const std::size_t members : {10, 63, 64, 65, 130}) {
    // One scratch across every call, as the engine reuses its own.
    DiscoveryScratch scratch;
    for (const Scheduling scheduling :
         {Scheduling::kCooperative, Scheduling::kTitForTat,
          Scheduling::kPopularityOnly}) {
      RandomFixture fx(seed, members, 50);
      for (const int budget : {1, 5, 12, 1000}) {
        const auto reference =
            planDiscoveryReference(fx.discoveryPeers, budget, scheduling);
        expectPlansIdentical(
            planDiscovery(fx.discoveryPeers, budget, scheduling), reference);
        expectPlansIdentical(planDiscovery(fx.discoveryPeers, budget,
                                           scheduling, nullptr, 0, &scratch),
                             reference);
      }
    }
  }
}

TEST_P(PlannerEquivalenceSweep, OptimizedMatchesReferenceWithRefusals) {
  const std::uint64_t seed = GetParam();
  // Past 64 members the refusal tests run over multi-word rows.
  for (const std::size_t members : {8, 65, 130}) {
    RandomFixture fx(seed, members, 40);
    // Random refusals and distrust to exercise the planner's exclusion
    // rules.
    Rng rng(seed * 977 + 13);
    std::vector<std::unordered_set<FileId>> rejected(
        fx.discoveryPeers.size());
    std::vector<std::unordered_set<NodeId>> distrusted(
        fx.discoveryPeers.size());
    for (std::size_t i = 0; i < fx.discoveryPeers.size(); ++i) {
      for (FileId f : fx.internet.catalog().allFiles()) {
        if (rng.chance(0.1)) rejected[i].insert(f);
      }
      for (std::size_t p = 0; p < fx.discoveryPeers.size(); ++p) {
        if (rng.chance(0.15)) {
          distrusted[i].insert(NodeId(static_cast<std::uint32_t>(p)));
        }
      }
      fx.discoveryPeers[i].rejected = &rejected[i];
      fx.discoveryPeers[i].distrustedSenders = &distrusted[i];
    }
    for (const Scheduling scheduling :
         {Scheduling::kCooperative, Scheduling::kTitForTat,
          Scheduling::kPopularityOnly}) {
      SCOPED_TRACE(testing::Message() << members << " members, scheduling "
                                      << static_cast<int>(scheduling));
      expectPlansIdentical(
          planDiscovery(fx.discoveryPeers, 15, scheduling),
          planDiscoveryReference(fx.discoveryPeers, 15, scheduling));
    }
  }
}

// Discovery as the engine calls it: members hold the catalog's own record
// objects and ask shared catalog query objects (their own and the ones
// they proxy), every member passes its empty refusal sets, and the planner
// is given the catalog, so requesters come from the queries' match rows.
// The fixture also holds what only some runs have: queries made before
// later publishes, records the server replaced with setPopularity, forged
// copies under new ids and tampered copies under a catalog id, held
// records that expired before some queries were issued, text-only query
// objects, and peers with query strings only.
struct EngineStyleFixture {
  static constexpr std::uint32_t kForgedIdBase = 1u << 24;

  InternetServices internet;
  Rng rng;
  std::vector<SharedQuery> queries;  // every query object made so far
  std::vector<SharedMetadata> altered;
  std::uint32_t nextForged = kForgedIdBase;
  std::vector<MetadataStore> stores;
  std::vector<CreditLedger> ledgers;
  std::vector<std::vector<const FileQuery*>> queryLists;
  std::unordered_set<FileId> noRejected;
  std::unordered_set<NodeId> noDistrusted;
  std::vector<DiscoveryPeer> peers;

  EngineStyleFixture(std::uint64_t seed, std::size_t members)
      : rng(seed), stores(members), ledgers(members), queryLists(members) {
    for (std::size_t i = 0; i < members; ++i) {
      for (std::size_t p = 0; p < members; ++p) {
        ledgers[i].addCredit(NodeId(static_cast<std::uint32_t>(p)),
                             rng.uniform(0.0, 10.0));
      }
    }
    queries = {std::make_shared<const FileQuery>("news"),
               std::make_shared<const FileQuery>("fox sports")};
  }

  // Publishes a batch at `at` with the given TTL and issues, at `at`, a
  // canonical query for about half its files and a "<topic> <style>" query
  // (which later files can match too) for a few.
  void publish(SimTime at, Duration ttl, int count) {
    SyntheticBatchParams batch;
    batch.count = count;
    batch.publishedAt = at;
    batch.ttl = ttl;
    batch.lambda = count / 2.0;
    for (const FileId f : publishSyntheticBatch(internet, batch, rng)) {
      const FileInfo& info = *internet.catalog().find(f);
      if (rng.chance(0.5)) {
        queries.push_back(std::make_shared<const FileQuery>(
            canonicalQueryText(info), f, info.publishedAt, info.ttl));
      }
      if (rng.chance(0.2)) {
        const auto tokens = keywordTokens(info.name);
        queries.push_back(std::make_shared<const FileQuery>(
            tokens[1] + " " + tokens[2], f, info.publishedAt, info.ttl));
      }
    }
  }

  // Each member takes the catalog's record of each file alive at `now`
  // with probability 0.4 (a held record stays), a tampered copy under the
  // file's own id, or a forged copy under a new id.
  void stock(SimTime now) {
    const FileCatalog& catalog = internet.catalog();
    for (MetadataStore& store : stores) {
      for (const FileId f : catalog.aliveFiles(now)) {
        const Metadata& current = catalog.metadataFor(f);
        if (rng.chance(0.4)) store.add(catalog.sharedMetadataFor(f));
        if (rng.chance(0.03) && !store.has(f)) {
          auto tampered = std::make_shared<Metadata>(current);
          tampered->name = "fox news late ep" + std::to_string(f.value + 3);
          tampered->rebuildKeywords();
          altered.push_back(tampered);
          store.add(altered.back());
        }
        if (rng.chance(0.03)) {
          auto forged = std::make_shared<Metadata>(current);
          forged->file = FileId(nextForged++);
          forged->uri = "dtn://faux/" + std::to_string(forged->file.value);
          forged->rebuildKeywords();
          altered.push_back(forged);
          store.add(altered.back());
        }
      }
    }
  }

  // Rebuilds the peers: one to seven query objects per member, drawn from
  // every query made so far (members share objects, as proxied queries
  // do), except that every seventh member asks query strings only.
  void buildPeers() {
    peers.clear();
    for (std::size_t i = 0; i < stores.size(); ++i) {
      DiscoveryPeer peer;
      peer.id = NodeId(static_cast<std::uint32_t>(i));
      peer.store = &stores[i];
      peer.rejected = &noRejected;
      peer.distrustedSenders = &noDistrusted;
      peer.credits = &ledgers[i];
      peer.contributes = rng.chance(0.8);
      queryLists[i].clear();
      const auto count = static_cast<std::size_t>(rng.uniformInt(1, 7));
      for (std::size_t q = 0; q < count; ++q) {
        queryLists[i].push_back(queries[rng.pickIndex(queries.size())].get());
      }
      if (i % 7 == 6) {
        for (const FileQuery* query : queryLists[i]) {
          peer.queries.push_back(query->text);
        }
      } else {
        peer.queryObjects = &queryLists[i];
      }
      peers.push_back(std::move(peer));
    }
  }

  void expectPlansMatchReference(DiscoveryScratch& scratch) {
    for (const Scheduling scheduling :
         {Scheduling::kCooperative, Scheduling::kTitForTat,
          Scheduling::kPopularityOnly}) {
      for (const int budget : {1, 5, 12, 1000}) {
        SCOPED_TRACE(testing::Message()
                     << stores.size() << " members, scheduling "
                     << static_cast<int>(scheduling) << ", budget " << budget);
        expectPlansIdentical(
            planDiscovery(peers, budget, scheduling, nullptr, 0, &scratch,
                          &internet.catalog()),
            planDiscoveryReference(peers, budget, scheduling));
      }
    }
  }
};

TEST_P(PlannerEquivalenceSweep, EnginePathMatchesReference) {
  const std::uint64_t seed = GetParam();
  // One scratch across every call, as the engine reuses its own.
  DiscoveryScratch scratch;
  for (const std::size_t members : {10, 64, 65, 130}) {
    EngineStyleFixture fx(seed * 31 + members, members);
    // Day 0: a batch that expires after a day, then one after three.
    fx.publish(kDailyPublishHour, kDay, 12);
    fx.publish(kDailyPublishHour + kHour, 3 * kDay, 12);
    fx.stock(kDailyPublishHour + 2 * kHour);
    fx.buildPeers();
    fx.expectPlansMatchReference(scratch);

    // Day 2: the one-day batch has expired, yet the stores still hold it,
    // below the rows of the queries issued now. The server replaces some
    // records (their holders keep the old ones), and new files appear
    // that the queries made on day 0 must also see.
    const SimTime day2 = 2 * kDay + kDailyPublishHour;
    for (const FileId f : fx.internet.catalog().aliveFiles(day2)) {
      if (fx.rng.chance(0.3)) {
        fx.internet.catalog().setPopularity(f, fx.rng.uniform(0.0, 1.0));
      }
    }
    fx.publish(day2, 2 * kDay, 16);
    fx.stock(day2 + kHour);
    fx.buildPeers();
    fx.expectPlansMatchReference(scratch);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerEquivalenceSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// A download-planner fixture for the equivalence sweep: distinct member ids
// in no particular order, members without a store, free riders, empty and
// unsorted want lists with repeats, popularity ties and 1..maxPieces pieces
// per file.
struct DownloadFixture {
  std::vector<PieceStore> stores;
  std::vector<CreditLedger> ledgers;
  std::vector<std::vector<FileId>> wanted;
  std::vector<DownloadPeer> peers;
  std::vector<double> popularity;

  DownloadFixture(std::uint64_t seed, std::size_t members, int files,
                  std::uint32_t maxPieces) {
    Rng rng(seed);
    std::vector<std::uint32_t> pieceCounts;
    for (int f = 0; f < files; ++f) {
      pieceCounts.push_back(
          1 + static_cast<std::uint32_t>(rng.pickIndex(maxPieces)));
      popularity.push_back(rng.chance(0.5)
                               ? static_cast<double>(rng.pickIndex(3)) / 4.0
                               : rng.uniform());
    }
    std::vector<std::uint32_t> ids(members);
    for (std::size_t i = 0; i < members; ++i) {
      ids[i] = static_cast<std::uint32_t>(7 * i + 3);
    }
    rng.shuffle(ids);
    stores.resize(members);
    ledgers.resize(members);
    wanted.resize(members);
    const double holdRate = rng.uniform(0.1, 0.9);
    for (std::size_t i = 0; i < members; ++i) {
      for (int f = 0; f < files; ++f) {
        if (!rng.chance(0.5)) continue;
        const FileId file(static_cast<std::uint32_t>(f));
        stores[i].registerFile(file, pieceCounts[f]);
        for (std::uint32_t p = 0; p < pieceCounts[f]; ++p) {
          if (rng.chance(holdRate)) stores[i].addPiece(file, p);
        }
      }
      if (rng.chance(0.75)) {
        for (int f = 0; f < files; ++f) {
          if (rng.chance(0.2)) {
            wanted[i].push_back(FileId(static_cast<std::uint32_t>(f)));
          }
        }
        if (!wanted[i].empty() && rng.chance(0.3)) {
          wanted[i].push_back(wanted[i].front());
          rng.shuffle(wanted[i]);
        }
      }
      for (std::size_t p = 0; p < members; ++p) {
        ledgers[i].addCredit(NodeId(ids[p]), rng.uniform(0.0, 5.0));
      }
    }
    for (std::size_t i = 0; i < members; ++i) {
      DownloadPeer peer;
      peer.id = NodeId(ids[i]);
      peer.pieces = rng.chance(0.1) ? nullptr : &stores[i];
      peer.wanted = wanted[i];
      peer.credits = rng.chance(0.9) ? &ledgers[i] : nullptr;
      peer.contributes = rng.chance(0.8);
      peers.push_back(std::move(peer));
    }
  }

  [[nodiscard]] PopularityFn popularityFn() const {
    return [this](FileId f) {
      return f.value < popularity.size() ? popularity[f.value] : 0.0;
    };
  }
};

void expectDownloadPlansIdentical(const DownloadPlan& optimized,
                                  const DownloadPlan& reference) {
  ASSERT_EQ(optimized.size(), reference.size());
  for (std::size_t i = 0; i < optimized.size(); ++i) {
    EXPECT_EQ(optimized[i].sender, reference[i].sender) << "broadcast " << i;
    EXPECT_EQ(optimized[i].file, reference[i].file) << "broadcast " << i;
    EXPECT_EQ(optimized[i].piece, reference[i].piece) << "broadcast " << i;
    EXPECT_EQ(optimized[i].phase, reference[i].phase) << "broadcast " << i;
    EXPECT_TRUE(std::ranges::equal(optimized[i].requesters,
                                   reference[i].requesters))
        << "broadcast " << i;
  }
}

struct DownloadEquivalenceCase {
  std::size_t members;
  int files;
  std::uint32_t maxPieces;
};

void PrintTo(const DownloadEquivalenceCase& c, std::ostream* os) {
  *os << c.members << " members, " << c.files << " files, up to "
      << c.maxPieces << " pieces";
}

class DownloadPlannerEquivalence
    : public ::testing::TestWithParam<DownloadEquivalenceCase> {};

TEST_P(DownloadPlannerEquivalence, BroadcastPlannersMatchReference) {
  const DownloadEquivalenceCase c = GetParam();
  // One scratch across every call, as the engine reuses its own.
  DownloadScratch scratch;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const DownloadFixture fx(seed * 131 + c.members, c.members, c.files,
                             c.maxPieces);
    const PopularityFn popularityOf = fx.popularityFn();
    for (const Scheduling scheduling :
         {Scheduling::kCooperative, Scheduling::kPopularityOnly,
          Scheduling::kTitForTat}) {
      for (const PushOrder pushOrder :
           {PushOrder::kPopularity, PushOrder::kRarestFirst}) {
        for (const int budget : {0, 1, 5, 1000}) {
          SCOPED_TRACE(testing::Message()
                       << "seed " << seed << " scheduling "
                       << static_cast<int>(scheduling) << " push "
                       << static_cast<int>(pushOrder) << " budget " << budget);
          const DownloadPlan reference = planDownloadReference(
              fx.peers, popularityOf, budget, scheduling, pushOrder);
          const DownloadPlanner& planner =
              *downloadModeInfo(DownloadMode::kBroadcast, scheduling).planner;
          DownloadRequest request;
          request.peers = fx.peers;
          request.popularityOf = &popularityOf;
          request.budgetPieces = budget;
          request.pushOrder = pushOrder;
          expectDownloadPlansIdentical(planner.plan(request), reference);
          request.scratch = &scratch;
          expectDownloadPlansIdentical(planner.plan(request), reference);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Members, DownloadPlannerEquivalence,
    ::testing::Values(DownloadEquivalenceCase{2, 12, 1},
                      DownloadEquivalenceCase{3, 10, 70},
                      DownloadEquivalenceCase{5, 20, 4},
                      DownloadEquivalenceCase{8, 16, 9},
                      DownloadEquivalenceCase{20, 12, 70},
                      DownloadEquivalenceCase{63, 8, 5},
                      DownloadEquivalenceCase{64, 6, 70},
                      DownloadEquivalenceCase{65, 10, 3},
                      DownloadEquivalenceCase{130, 5, 40}));

}  // namespace
}  // namespace hdtn::core
