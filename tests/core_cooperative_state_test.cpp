// Equivalence of MBT's cooperative state by reference (peer wants as
// catalog file ids, stored peer queries as shared query objects, one access
// sync visit per file and publish epoch) with the string-based code it
// replaced (tests/reference_oracles.cpp). A randomized run drives both
// sides through publishes, new queries, cliques of 2-70 members and store
// traffic between contacts, with bounded stores, and compares every node's
// checkpointed state after each contact. One checkpoint round trip happens
// mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/access_sync.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/engine.hpp"
#include "src/core/internet.hpp"
#include "src/core/node.hpp"
#include "src/core/protocol.hpp"
#include "src/trace/nus.hpp"
#include "src/util/random.hpp"
#include "src/util/serialize.hpp"
#include "src/util/sha1.hpp"
#include "tests/checkpoint_walk.hpp"
#include "tests/reference_oracles.hpp"

namespace hdtn::core {
namespace {

constexpr std::uint32_t kNodes = 72;
constexpr Duration kCooperativeTtl = 2 * kDay;

// The engine side of a sync, minus the metrics: a record the store sheds
// is forgotten by `visits` (the engine's noteMetadataEvicted), when given.
class TestHost final : public AccessSync::Host {
 public:
  explicit TestHost(const FileCatalog& catalog) : catalog_(catalog) {}

  bool storeMetadata(Node& node, const SharedMetadata& md,
                     SimTime now) override {
    SharedMetadata shed;
    const bool added = node.acceptMetadata(md, now, &shed).added;
    if (shed != nullptr && visits != nullptr) {
      visits->forget(node.id(), shed->file);
    }
    return added;
  }
  void gotMetadata(const Node&, FileId, SimTime) override {}
  void deliverWholeFile(Node& node, FileId file, SimTime now) override {
    const FileInfo* info = catalog_.find(file);
    if (info == nullptr || !info->alive(now)) return;
    node.pieces().registerFile(file, info->pieceCount());
    node.pieces().setPriority(file, info->popularity);
    for (std::uint32_t p = 0; p < info->pieceCount(); ++p) {
      node.acceptPiece(file, p, info->pieceCount(), now);
    }
  }

  AccessSync* visits = nullptr;

 private:
  const FileCatalog& catalog_;
};

// Drops the pieces of dead files, as the engine does before a contact.
void dropDeadPieces(Node& node, const FileCatalog& catalog, SimTime now) {
  std::vector<FileId> dead;
  for (FileId file : node.pieces().files()) {
    const FileInfo* info = catalog.find(file);
    if (info == nullptr || !info->alive(now)) dead.push_back(file);
  }
  for (FileId file : dead) node.pieces().removeFile(file);
}

class CooperativeRun {
 public:
  CooperativeRun(ProtocolKind kind, std::uint64_t seed)
      : rng_(seed), protocol_{.kind = kind}, fastHost_(catalog()),
        referenceHost_(catalog()),
        referenceSync_(internet_, syncConfig()) {
    fastSync_ = std::make_unique<AccessSync>(internet_, syncConfig());
    fastHost_.visits = fastSync_.get();
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      NodeOptions options;
      options.internetAccess = rng_.chance(0.3);
      // Half the nodes get small bounded stores, so sheds and lost pieces
      // happen between the visits of one epoch.
      if (rng_.chance(0.5)) {
        options.pieceCapacity =
            static_cast<std::size_t>(rng_.uniformInt(2, 24));
      }
      if (rng_.chance(0.5)) {
        options.metadataCapacity =
            static_cast<std::size_t>(rng_.uniformInt(2, 12));
      }
      options.freeRider = !options.internetAccess && rng_.chance(0.1);
      options_.push_back(options);
      std::vector<NodeId> frequent;
      for (std::uint32_t j = 0; j < kNodes; ++j) {
        if (j != i && rng_.chance(0.3)) frequent.push_back(NodeId(j));
      }
      frequent_.push_back(frequent);
      fast_.push_back(makeNode(i));
      reference_.emplace_back(makeNode(i), kCooperativeTtl);
    }
  }

  // Publishes a day's files at `now`, gives their queries to the nodes,
  // changes some popularities, and syncs every access node.
  void publish(SimTime now) {
    SyntheticBatchParams batch;
    batch.count = static_cast<int>(rng_.uniformInt(6, 16));
    batch.publishedAt = now;
    batch.ttl = rng_.uniformInt(1, 3) * kDay;
    batch.lambda = 6.0;
    batch.piecesPerFile = static_cast<std::uint32_t>(rng_.uniformInt(1, 4));
    for (const FileId file : publishSyntheticBatch(internet_, batch, rng_)) {
      const FileInfo& info = *catalog().find(file);
      const auto query = std::make_shared<const FileQuery>(
          canonicalQueryText(info), file, now, info.ttl);
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        if (rng_.chance(std::min(1.0, 2 * info.popularity))) {
          addQuery(i, query);
        }
      }
    }
    for (const FileId file : catalog().aliveFiles(now)) {
      if (rng_.chance(0.2)) {
        internet_.catalog().setPopularity(file, rng_.uniform());
      }
    }
    fastSync_->beginEpoch(now);
    referenceSync_.beginEpoch(now);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      if (!options_[i].internetAccess) continue;
      views_.clear();
      fastSync_->sync(fast_[i], now, views_, fastHost_);
      referenceSync_.sync(reference_[i], now, referenceHost_);
    }
  }

  // One contact among `members` at `now`: expiry, access syncs, the hello
  // exchange; then some store traffic, as discovery and download would.
  void contact(const std::vector<std::uint32_t>& members, SimTime now) {
    views_.clear();
    std::vector<Node*> fast;
    std::vector<ReferenceNode*> reference;
    for (const std::uint32_t i : members) {
      fast_[i].expire(now);
      dropDeadPieces(fast_[i], catalog(), now);
      reference_[i].expire(now);
      dropDeadPieces(reference_[i].node, catalog(), now);
      fast.push_back(&fast_[i]);
      reference.push_back(&reference_[i]);
    }
    for (const std::uint32_t i : members) {
      if (!options_[i].internetAccess) continue;
      fastSync_->sync(fast_[i], now, views_, fastHost_);
      referenceSync_.sync(reference_[i], now, referenceHost_);
    }
    exchangeHellos(fast, protocol_, catalog(), now, views_);
    exchangeHellosReference(reference, protocol_, catalog(), now);

    // The queries discovery would serve: the same lists in the same order.
    for (const std::uint32_t i : members) {
      const auto& queries = views_.contactQueries(
          fast_[i], now, protocol_.distributesQueries());
      std::vector<std::vector<std::string>> tokens;
      for (const FileQuery* query : queries) {
        tokens.push_back(query->tokens);
        std::vector<std::uint64_t> hashes;
        for (const std::string& token : query->tokens) {
          hashes.push_back(keywordHash(token));
        }
        ASSERT_EQ(query->tokenHashes, hashes) << query->text;
      }
      ASSERT_EQ(tokens, reference_[i].contactQueryTokens(
                            now, protocol_.distributesQueries()))
          << "node " << i;
    }

    const std::vector<FileId> alive = catalog().aliveFiles(now);
    if (alive.empty()) return;
    for (const std::uint32_t i : members) {
      if (rng_.chance(0.3)) {
        // A record, possibly an older popularity snapshot of it.
        const FileId file = alive[rng_.pickIndex(alive.size())];
        auto md = std::make_shared<Metadata>(catalog().metadataFor(file));
        if (rng_.chance(0.5)) md->popularity = rng_.uniform();
        const SharedMetadata record = md;
        fastHost_.storeMetadata(fast_[i], record, now);
        referenceHost_.storeMetadata(reference_[i].node, record, now);
      }
      if (rng_.chance(0.3)) {
        const FileInfo& info =
            *catalog().find(alive[rng_.pickIndex(alive.size())]);
        const auto piece =
            static_cast<std::uint32_t>(rng_.pickIndex(info.pieceCount()));
        fast_[i].acceptPiece(info.id, piece, info.pieceCount(), now);
        reference_[i].node.acceptPiece(info.id, piece, info.pieceCount(),
                                       now);
      }
    }
  }

  // A query for a live file issued between publishes.
  void lateQuery(SimTime now) {
    const std::vector<FileId> alive = catalog().aliveFiles(now);
    if (alive.empty()) return;
    const FileInfo& info = *catalog().find(alive[rng_.pickIndex(alive.size())]);
    addQuery(static_cast<std::uint32_t>(rng_.pickIndex(kNodes)),
             std::make_shared<const FileQuery>(canonicalQueryText(info),
                                               info.id, now, info.ttl));
  }

  // Saves every fast node and the fast sync, and continues from fresh
  // objects restored from those bytes, re-sharing records and queries as
  // engine restore does.
  void checkpointRoundTrip() {
    MetadataInterner records;
    QueryInterner queries;
    for (const FileId file : catalog().allFiles()) {
      records.seed(catalog().sharedMetadataFor(file));
      const FileInfo& info = *catalog().find(file);
      queries.seed(std::make_shared<const FileQuery>(
          canonicalQueryText(info), file, info.publishedAt, info.ttl));
    }
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      Node restored = makeNode(i);
      loadNodeState(restored, nodeStateBytes(fast_[i]), records, queries);
      fast_[i] = std::move(restored);
    }
    Serializer out;
    fastSync_->saveState(out, kNodes);
    auto restored = std::make_unique<AccessSync>(internet_, syncConfig());
    Deserializer in(out.bytes());
    restored->loadState(in, kNodes);
    fastSync_ = std::move(restored);
    fastHost_.visits = fastSync_.get();
    views_ = ContactViews();
  }

  void expectIdentical(const std::string& where) const {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      ASSERT_EQ(nodeStateBytes(fast_[i]), reference_[i].saveState(catalog()))
          << where << ", node " << i;
    }
    Serializer fast;
    fastSync_->saveState(fast, kNodes);
    Serializer reference;
    referenceSync_.saveState(reference, kNodes);
    ASSERT_EQ(fast.bytes(), reference.bytes()) << where << ", search caches";
  }

  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  [[nodiscard]] const FileCatalog& catalog() const {
    return internet_.catalog();
  }

  [[nodiscard]] AccessSync::Config syncConfig() const {
    return {.searchProxiedQueries = protocol_.distributesQueries(),
            .takeCarryStock = protocol_.distributesMetadata(),
            .fetchPeerWants = true};
  }

  [[nodiscard]] Node makeNode(std::uint32_t i) const {
    Node node(NodeId(i), options_[i]);
    node.setFrequentContacts(frequent_[i]);
    node.setCooperativeStateTtl(kCooperativeTtl);
    node.setCatalog(&catalog());
    return node;
  }

  void addQuery(std::uint32_t node, const SharedQuery& query) {
    fast_[node].addQuery(QueryId(nextQuery_), query);
    reference_[node].node.addQuery(QueryId(nextQuery_), query);
    ++nextQuery_;
  }

  Rng rng_;
  ProtocolConfig protocol_;
  InternetServices internet_;
  std::vector<NodeOptions> options_;
  std::vector<std::vector<NodeId>> frequent_;
  std::vector<Node> fast_;
  std::vector<ReferenceNode> reference_;
  TestHost fastHost_;
  TestHost referenceHost_;
  std::unique_ptr<AccessSync> fastSync_;
  AccessSyncReference referenceSync_;
  ContactViews views_;
  std::uint32_t nextQuery_ = 0;
};

TEST(CooperativeState, MatchesStringReferenceOnRandomRuns) {
  constexpr int kDays = 7;
  for (const ProtocolKind kind : {ProtocolKind::kMbt, ProtocolKind::kMbtQ}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      CooperativeRun run(kind, seed);
      Rng& rng = run.rng();
      for (int day = 0; day < kDays; ++day) {
        const SimTime publishAt = day * kDay + kDailyPublishHour;
        run.publish(publishAt);
        const std::string dayName = std::string(protocolName(kind)) +
                                    " seed " + std::to_string(seed) +
                                    " day " + std::to_string(day);
        run.expectIdentical(dayName + " publish");
        if (day == kDays / 2) run.checkpointRoundTrip();
        // Contacts at rising times up to the next publish.
        std::vector<SimTime> times;
        for (int c = 0; c < 6; ++c) {
          times.push_back(publishAt + rng.uniformInt(0, kDay - 1));
        }
        std::sort(times.begin(), times.end());
        for (std::size_t c = 0; c < times.size(); ++c) {
          if (rng.chance(0.2)) run.lateQuery(times[c]);
          std::vector<std::uint32_t> members(kNodes);
          for (std::uint32_t i = 0; i < kNodes; ++i) members[i] = i;
          rng.shuffle(members);
          members.resize(static_cast<std::size_t>(rng.uniformInt(2, 70)));
          run.contact(members, times[c]);
          run.expectIdentical(dayName + " contact " + std::to_string(c) +
                              " (" + std::to_string(members.size()) +
                              " members)");
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// Node restore resolves every saved peer want through the node's catalog;
// a file the catalog lacks cannot be represented, so the load fails.
TEST(CooperativeState, NodeRestoreRejectsPeerWantOutsideCatalog) {
  InternetServices internet;
  Rng rng(3);
  SyntheticBatchParams batch;
  batch.count = 3;
  const auto files = publishSyntheticBatch(internet, batch, rng);
  Node source(NodeId(1), {});
  source.setCatalog(&internet.catalog());
  source.storePeerWants({internet.catalog().find(files[0])->uri}, 5);
  const std::string bytes = nodeStateBytes(source);

  InternetServices other;  // publishes nothing
  Node restored(NodeId(1), {});
  restored.setCatalog(&other.catalog());
  MetadataInterner records;
  QueryInterner queries;
  EXPECT_THROW(loadNodeState(restored, bytes, records, queries),
               SerializeError);
}

// An engine checkpoint hand-edited so that a peer want names a file the
// restored catalog lacks fails to restore with CheckpointError. No engine
// run writes one: every stored want names a catalog file.
TEST(CooperativeState, EngineRestoreRejectsPeerWantOutsideCatalog) {
  trace::NusParams tp;
  tp.students = 40;
  tp.courses = 8;
  tp.days = 4;
  tp.seed = 3;
  const trace::ContactTrace trace = trace::generateNus(tp);
  EngineParams params;
  params.protocol.kind = ProtocolKind::kMbt;
  params.internetAccessFraction = 0.3;
  params.newFilesPerDay = 10;
  params.fileTtlDays = 2;
  params.frequentContactPeriod = kDay;
  params.seed = 5;
  Engine engine(trace, params);
  engine.runUntil(trace.endTime() / 2);
  const std::string path =
      testing::TempDir() + "/cooperative_state_unknown_want.ckpt";
  engine.saveCheckpoint(path);

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string bytes;
  char buffer[1 << 16];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof buffer, file)) > 0;) {
    bytes.append(buffer, n);
  }
  std::fclose(file);
  const testutil::PayloadLayout layout = testutil::walkV6Payload(
      std::string_view(bytes).substr(testutil::kCheckpointHeaderBytes));
  const auto holder =
      std::find_if(layout.wantAt.begin(), layout.wantAt.end(),
                   [](const auto& wants) { return !wants.empty(); });
  ASSERT_NE(holder, layout.wantAt.end());
  // The node's first want names a file past every catalog id.
  testutil::writeU32At(bytes, testutil::kCheckpointHeaderBytes + holder->front(),
                       static_cast<std::uint32_t>(
                           engine.internet().catalog().size() + 1000));
  testutil::resealCheckpoint(bytes);
  file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);

  Engine restored(trace, params);
  try {
    restored.restoreCheckpoint(path);
    FAIL() << "restoreCheckpoint did not throw";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("peer want names file"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hdtn::core
