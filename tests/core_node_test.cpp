#include "src/core/node.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/file_catalog.hpp"
#include "src/util/random.hpp"
#include "tests/reference_oracles.hpp"

namespace hdtn::core {
namespace {

Metadata makeMetadata(std::uint32_t id, const std::string& name,
                      std::uint32_t pieces, double popularity) {
  Metadata md;
  md.file = FileId(id);
  md.name = name;
  md.publisher = "pub";
  md.uri = "dtn://pub/f" + std::to_string(id);
  md.popularity = popularity;
  md.publishedAt = 0;
  md.ttl = 10 * kDay;
  md.pieceChecksums.assign(pieces, Sha1Digest{});
  md.rebuildKeywords();
  return md;
}

// A catalog holding dtn://a/f0 ... dtn://a/f9: the URIs the peer-want
// tests advertise. A node keeps a peer want as the catalog file it names.
const FileCatalog* peerWantCatalog() {
  static const FileCatalog catalog = [] {
    FileCatalog built;
    for (int i = 0; i < 10; ++i) {
      FileCatalog::PublishRequest request;
      request.name = "file " + std::to_string(i);
      request.publisher = "a";
      request.sizeBytes = 1;
      request.pieceSizeBytes = 1;
      request.ttl = 10 * kDay;
      built.publish(request);
    }
    return built;
  }();
  return &catalog;
}

// The token lists of `queries`, in order.
template <typename Queries>
std::vector<std::vector<std::string>> tokensOf(const Queries& queries) {
  std::vector<std::vector<std::string>> tokens;
  for (const auto& query : queries) tokens.push_back(query->tokens);
  return tokens;
}

Query makeQuery(std::uint32_t id, std::uint32_t owner,
                const std::string& text, std::uint32_t target) {
  Query q;
  q.id = QueryId(id);
  q.owner = NodeId(owner);
  q.text = text;
  q.target = FileId(target);
  q.issuedAt = 0;
  q.ttl = 3 * kDay;
  return q;
}

TEST(Node, QueryAdvertisedUntilMetadataFound) {
  Node node(NodeId(1), {});
  node.addQuery(makeQuery(0, 1, "fox news ep1", 10));
  EXPECT_EQ(node.activeQueryTexts(0),
            (std::vector<std::string>{"fox news ep1"}));
  const auto selected =
      node.acceptMetadata(makeMetadata(10, "fox news ep1", 2, 0.5), 100);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], QueryId(0));
  EXPECT_TRUE(node.activeQueryTexts(100).empty());
}

TEST(Node, WantedFilesTrackQueryLifecycle) {
  Node node(NodeId(1), {});
  node.addQuery(makeQuery(0, 1, "fox news ep1", 10));
  EXPECT_TRUE(node.wantedFilesView(0).empty());  // no metadata yet
  node.acceptMetadata(makeMetadata(10, "fox news ep1", 2, 0.5), 10);
  EXPECT_EQ(node.wantedFilesView(10), (std::vector<FileId>{FileId(10)}));
  node.acceptPiece(FileId(10), 0, 2, 20);
  EXPECT_EQ(node.wantedFilesView(20), (std::vector<FileId>{FileId(10)}));
  const auto satisfied = node.acceptPiece(FileId(10), 1, 2, 30);
  ASSERT_EQ(satisfied.size(), 1u);
  EXPECT_TRUE(node.wantedFilesView(30).empty());
}

TEST(Node, ExpiredQueriesNeitherAdvertisedNorWanted) {
  Node node(NodeId(1), {});
  node.addQuery(makeQuery(0, 1, "fox news ep1", 10));
  EXPECT_TRUE(node.activeQueryTexts(4 * kDay).empty());
  node.acceptMetadata(makeMetadata(10, "fox news ep1", 1, 0.5), 10);
  EXPECT_TRUE(node.wantedFilesView(4 * kDay).empty());
}

TEST(Node, ExpiredMetadataNotAccepted) {
  Node node(NodeId(1), {});
  node.addQuery(makeQuery(0, 1, "fox news ep1", 10));
  Metadata md = makeMetadata(10, "fox news ep1", 1, 0.5);
  const auto selected = node.acceptMetadata(md, md.expiresAt());
  EXPECT_TRUE(selected.empty());
  EXPECT_FALSE(node.metadata().has(FileId(10)));
}

TEST(Node, MultipleQueriesSatisfiedByOneMetadata) {
  Node node(NodeId(1), {});
  node.addQuery(makeQuery(0, 1, "fox news", 10));
  node.addQuery(makeQuery(1, 1, "news ep1", 10));
  const auto selected =
      node.acceptMetadata(makeMetadata(10, "fox news ep1", 1, 0.5), 5);
  EXPECT_EQ(selected.size(), 2u);
}

TEST(Node, AnyQueryMatchesRespectsState) {
  Node node(NodeId(1), {});
  node.addQuery(makeQuery(0, 1, "fox news ep1", 10));
  const Metadata md = makeMetadata(10, "fox news ep1", 1, 0.5);
  EXPECT_TRUE(node.anyQueryMatches(md, 0));
  node.acceptMetadata(md, 0);
  EXPECT_FALSE(node.anyQueryMatches(md, 1));  // already satisfied
}

TEST(Node, AcceptPieceRegistersUnknownFile) {
  // MBT-QM: pushed pieces arrive without prior metadata.
  Node node(NodeId(1), {});
  node.acceptPiece(FileId(7), 0, 3, 10);
  EXPECT_TRUE(node.pieces().isRegistered(FileId(7)));
  EXPECT_EQ(node.pieces().piecesHeld(FileId(7)), 1u);
}

TEST(Node, FrequentContactQueriesStoredOnlyForFrequentPeers) {
  Node node(NodeId(1), {});
  node.setFrequentContacts({NodeId(2), NodeId(4)});
  EXPECT_TRUE(node.isFrequentContact(NodeId(2)));
  EXPECT_FALSE(node.isFrequentContact(NodeId(3)));
  node.storePeerQueries(NodeId(2), {"drama ep5"}, 0);
  node.storePeerQueries(NodeId(3), {"ignored"}, 0);
  EXPECT_EQ(node.proxiedQueryTexts(0),
            (std::vector<std::string>{"drama ep5"}));
}

TEST(Node, ProxiedQueriesDedupedAcrossPeers) {
  Node node(NodeId(1), {});
  node.setFrequentContacts({NodeId(2), NodeId(3)});
  node.storePeerQueries(NodeId(2), {"drama ep5", "news ep1"}, 0);
  node.storePeerQueries(NodeId(3), {"drama ep5"}, 0);
  EXPECT_EQ(node.proxiedQueryTexts(0),
            (std::vector<std::string>{"drama ep5", "news ep1"}));
}

TEST(Node, ProxiedQueriesExpireWithCooperativeTtl) {
  Node node(NodeId(1), {});
  node.setFrequentContacts({NodeId(2)});
  node.setCooperativeStateTtl(kDay);
  node.storePeerQueries(NodeId(2), {"drama ep5"}, 0);
  EXPECT_FALSE(node.proxiedQueryTexts(kDay).empty());
  EXPECT_TRUE(node.proxiedQueryTexts(kDay + 1).empty());
}

TEST(Node, ReplacingPeerQueriesKeepsLatest) {
  Node node(NodeId(1), {});
  node.setFrequentContacts({NodeId(2)});
  node.storePeerQueries(NodeId(2), {"old"}, 0);
  node.storePeerQueries(NodeId(2), {"new"}, 10);
  EXPECT_EQ(node.proxiedQueryTexts(10), (std::vector<std::string>{"new"}));
}

TEST(Node, PeerWantsStoredAndExpire) {
  Node node(NodeId(1), {});
  node.setCooperativeStateTtl(kDay);
  node.setCatalog(peerWantCatalog());
  node.storePeerWants({"dtn://a/f1", "dtn://a/f2"}, 0);
  node.storePeerWants({"dtn://a/f1"}, kHour);  // refresh f1
  EXPECT_EQ(node.peerWantedUris(0).size(), 2u);
  // After a day, only the refreshed URI survives.
  const auto fresh = node.peerWantedUris(kDay + kMinute);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0], "dtn://a/f1");
}

TEST(Node, ExpirePurgesMetadataAndCooperativeState) {
  Node node(NodeId(1), {});
  node.setFrequentContacts({NodeId(2)});
  node.setCooperativeStateTtl(kDay);
  node.setCatalog(peerWantCatalog());
  Metadata md = makeMetadata(10, "short lived", 1, 0.5);
  md.ttl = kHour;
  node.acceptMetadata(md, 0);
  node.storePeerQueries(NodeId(2), {"q"}, 0);
  node.storePeerWants({"dtn://a/f1"}, 0);
  node.expire(2 * kDay);
  EXPECT_FALSE(node.metadata().has(FileId(10)));
  EXPECT_TRUE(node.proxiedQueryTexts(2 * kDay).empty());
  EXPECT_TRUE(node.peerWantedUris(2 * kDay).empty());
}

TEST(Node, ExpireKeepsStateExactlyOneTtlOld) {
  Node node(NodeId(1), {});
  node.setFrequentContacts({NodeId(2)});
  node.setCooperativeStateTtl(kDay);
  node.setCatalog(peerWantCatalog());
  node.storePeerQueries(NodeId(2), {"q"}, 0);
  node.storePeerWants({"dtn://a/f1"}, 0);
  node.expire(kDay);  // now - stamp == ttl: kept
  EXPECT_EQ(node.proxiedQueryTexts(kDay).size(), 1u);
  EXPECT_EQ(node.peerWantedUris(kDay).size(), 1u);
  node.expire(kDay + 1);  // ttl + 1: dropped
  Serializer out;
  node.saveState(out);
  Node fresh(NodeId(1), {});
  Serializer empty;
  fresh.saveState(empty);
  EXPECT_EQ(out.bytes(), empty.bytes());
}

TEST(Node, ExpireFollowsRefreshedStamps) {
  Node node(NodeId(1), {});
  node.setFrequentContacts({NodeId(2)});
  node.setCooperativeStateTtl(kDay);
  node.setCatalog(peerWantCatalog());
  node.storePeerQueries(NodeId(2), {"q"}, 0);
  node.storePeerWants({"dtn://a/f1", "dtn://a/f2"}, 0);
  node.storePeerQueries(NodeId(2), {"q"}, 10);  // refresh
  node.storePeerWants({"dtn://a/f1"}, 10);
  node.expire(kDay + 1);  // drops f2 only
  EXPECT_EQ(node.peerWantedUris(kDay + 1),
            (std::vector<Uri>{"dtn://a/f1"}));
  EXPECT_EQ(node.proxiedQueryTexts(kDay + 1).size(), 1u);
  node.expire(kDay + 10);  // refreshed stamps are exactly one ttl old
  EXPECT_EQ(node.peerWantedUris(kDay + 10).size(), 1u);
  EXPECT_EQ(node.proxiedQueryTexts(kDay + 10).size(), 1u);
  // A stamp older than the recomputed watermark still gets expired.
  node.storePeerWants({"dtn://a/f3"}, 5);
  node.expire(kDay + 6);
  EXPECT_EQ(node.peerWantedUris(0), (std::vector<Uri>{"dtn://a/f1"}));
  node.expire(kDay + 11);
  EXPECT_TRUE(node.peerWantedUris(0).empty());
  EXPECT_TRUE(node.proxiedQueryTexts(0).empty());
}

TEST(Node, ExpireAfterLoadStateSeesRestoredStamps) {
  Node source(NodeId(1), {});
  source.setCooperativeStateTtl(kDay);
  source.setCatalog(peerWantCatalog());
  source.storePeerWants({"dtn://a/f1"}, 0);
  Serializer out;
  source.saveState(out);

  Node restored(NodeId(1), {});
  restored.setCooperativeStateTtl(kDay);
  restored.setCatalog(peerWantCatalog());
  restored.storePeerWants({"dtn://a/f9"}, 2 * kDay);
  restored.expire(2 * kDay);  // watermark now 2 days
  Deserializer in(out.bytes());
  MetadataInterner records;
  QueryInterner queries;
  restored.loadState(in, records, queries);
  restored.expire(kDay + 1);
  EXPECT_TRUE(restored.peerWantedUris(0).empty());
}

TEST(Node, OptionsAndContributes) {
  Node rider(NodeId(1), {.internetAccess = false, .freeRider = true});
  EXPECT_FALSE(rider.contributes());
  Node normal(NodeId(2), {.internetAccess = true, .freeRider = false});
  EXPECT_TRUE(normal.contributes());
  EXPECT_TRUE(normal.options().internetAccess);
}

TEST(Node, QueryStatesExposeProgress) {
  Node node(NodeId(1), {});
  node.addQuery(makeQuery(0, 1, "fox news ep1", 10));
  node.acceptMetadata(makeMetadata(10, "fox news ep1", 1, 0.5), 5);
  node.acceptPiece(FileId(10), 0, 1, 6);
  const auto& states = node.queryStates();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_TRUE(states[0].metadataFound);
  EXPECT_TRUE(states[0].fileFound);
  EXPECT_EQ(states[0].chosenFile, FileId(10));
}

// The six query scans skip the expired prefix of the node's queries behind
// a watermark. Drive one node through random addQuery / acceptMetadata /
// acceptPiece / expire steps at non-decreasing times, adding some queries
// out of issue order (an earlier issue time, or a shorter TTL, than queries
// already held), and check every scan against its full-scan reference
// after each step: at the step's time and at an earlier one.
TEST(Node, WatermarkScansMatchFullScans) {
  constexpr std::uint32_t kFiles = 12;
  std::vector<Metadata> records;
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    records.push_back(makeMetadata(100 + i,
                                   "show s" + std::to_string(i % 4) + " ep" +
                                       std::to_string(i),
                                   1 + i % 3, 0.1 * (1 + i % 5)));
  }
  std::ptrdiff_t expiredQueries = 0;
  std::ptrdiff_t completedQueries = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    Node node(NodeId(1), {});
    ContactViews views;
    SimTime now = 0;
    std::uint32_t nextQuery = 0;
    for (int step = 0; step < 200; ++step) {
      now += rng.uniformInt(0, kDay / 3);
      const auto pick = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(kFiles) - 1));
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      switch (rng.uniformInt(0, 3)) {
        case 0: {
          Query q;
          q.id = QueryId(nextQuery++);
          q.owner = node.id();
          q.target = records[pick].file;
          q.text = rng.chance(0.5)
                       ? "show s" + std::to_string(pick % 4)
                       : "show s" + std::to_string(pick % 4) + " ep" +
                             std::to_string(pick);
          q.issuedAt =
              rng.chance(0.7) ? now : now - rng.uniformInt(0, 2 * kDay);
          q.ttl = rng.uniformInt(1, 3 * kDay);
          node.addQuery(q);
          break;
        }
        case 1: {
          Metadata md = records[pick];
          md.publishedAt = std::max<SimTime>(0, now - rng.uniformInt(0, 12 * kDay));
          const std::vector<QueryId> expected =
              md.expired(now) ? std::vector<QueryId>{}
                              : metadataSelectionReference(node, md, now);
          EXPECT_EQ(node.acceptMetadata(md, now), expected) << where;
          break;
        }
        case 2: {
          // Mostly pieces of files being downloaded, so files complete.
          const std::vector<FileId> wanted = node.wantedFilesView(now);
          const Metadata& md =
              !wanted.empty() && rng.chance(0.7)
                  ? records[wanted[static_cast<std::size_t>(rng.uniformInt(
                                0, static_cast<std::int64_t>(wanted.size()) -
                                       1))]
                                .value -
                            100]
                  : records[pick];
          const auto piece = static_cast<std::uint32_t>(
              rng.uniformInt(0, md.pieceCount() - 1));
          const std::vector<QueryId> completes =
              fileCompletionReference(node, md.file, now);
          const std::vector<QueryId> satisfied =
              node.acceptPiece(md.file, piece, md.pieceCount(), now);
          EXPECT_EQ(satisfied, node.pieces().isComplete(md.file)
                                   ? completes
                                   : std::vector<QueryId>{})
              << where;
          break;
        }
        default:
          node.expire(now);
          break;
      }
      for (const SimTime at : {now, now - rng.uniformInt(0, kDay)}) {
        EXPECT_EQ(node.activeQueryTexts(at),
                  activeQueryTextsReference(node, at))
            << where << " at " << at;
        EXPECT_EQ(tokensOf(node.activeQueries(at)),
                  activeQueryTokensReference(node, at))
            << where << " at " << at;
        EXPECT_EQ(tokensOf(views.contactQueries(node, at, false)),
                  activeQueryTokensReference(node, at))
            << where << " at " << at;
        EXPECT_EQ(node.wantedFilesView(at), wantedFilesReference(node, at))
            << where << " at " << at;
        EXPECT_EQ(views.wantedFiles(node, at), wantedFilesReference(node, at))
            << where << " at " << at;
        for (const Metadata& md : records) {
          EXPECT_EQ(node.anyQueryMatches(md, at),
                    anyQueryMatchesReference(node, md, at))
              << where << " at " << at << " file " << md.file.value;
        }
      }
    }
    const auto& states = node.queryStates();
    expiredQueries += std::count_if(
        states.begin(), states.end(),
        [&](const Node::QueryState& qs) { return qs.query->expired(now); });
    completedQueries += std::count_if(
        states.begin(), states.end(),
        [](const Node::QueryState& qs) { return qs.fileFound; });
  }
  // The runs reached every branch: queries expired and files completed.
  EXPECT_GT(expiredQueries, 100);
  EXPECT_GT(completedQueries, 20);
}

}  // namespace
}  // namespace hdtn::core
