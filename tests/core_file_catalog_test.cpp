#include "src/core/file_catalog.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/util/random.hpp"

namespace hdtn::core {
namespace {

FileCatalog::PublishRequest sampleRequest() {
  FileCatalog::PublishRequest req;
  req.name = "fox news daily ep0";
  req.publisher = "fox";
  req.description = "poster for the daily news ep0";
  req.sizeBytes = 2500;
  req.pieceSizeBytes = 1024;
  req.popularity = 0.4;
  req.publishedAt = 100;
  req.ttl = 3 * kDay;
  return req;
}

TEST(FileInfo, PieceArithmetic) {
  FileInfo info;
  info.sizeBytes = 2500;
  info.pieceSizeBytes = 1024;
  EXPECT_EQ(info.pieceCount(), 3u);
  EXPECT_EQ(info.pieceLength(0), 1024u);
  EXPECT_EQ(info.pieceLength(1), 1024u);
  EXPECT_EQ(info.pieceLength(2), 452u);  // final short piece
}

TEST(FileInfo, ExactMultipleOfPieceSize) {
  FileInfo info;
  info.sizeBytes = 2048;
  info.pieceSizeBytes = 1024;
  EXPECT_EQ(info.pieceCount(), 2u);
  EXPECT_EQ(info.pieceLength(1), 1024u);
}

TEST(FileInfo, AliveWindow) {
  FileInfo info;
  info.publishedAt = 100;
  info.ttl = 50;
  EXPECT_FALSE(info.alive(99));
  EXPECT_TRUE(info.alive(100));
  EXPECT_TRUE(info.alive(149));
  EXPECT_FALSE(info.alive(150));
}

TEST(FileCatalog, PublishAssignsIdsAndUris) {
  FileCatalog catalog;
  const FileId a = catalog.publish(sampleRequest());
  const FileId b = catalog.publish(sampleRequest());
  EXPECT_EQ(a, FileId(0));
  EXPECT_EQ(b, FileId(1));
  EXPECT_EQ(catalog.size(), 2u);
  const FileInfo* info = catalog.find(a);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->uri, "dtn://fox/f0");
  EXPECT_EQ(catalog.findByUri("dtn://fox/f1")->id, b);
  EXPECT_EQ(catalog.findByUri("dtn://fox/f99"), nullptr);
  EXPECT_EQ(catalog.find(FileId(42)), nullptr);
  EXPECT_EQ(catalog.find(FileId()), nullptr);  // invalid id
}

TEST(FileCatalog, MetadataMatchesFileInfo) {
  FileCatalog catalog;
  const FileId id = catalog.publish(sampleRequest());
  const Metadata& md = catalog.metadataFor(id);
  const FileInfo& info = *catalog.find(id);
  EXPECT_EQ(md.file, id);
  EXPECT_EQ(md.name, info.name);
  EXPECT_EQ(md.uri, info.uri);
  EXPECT_EQ(md.sizeBytes, info.sizeBytes);
  EXPECT_EQ(md.pieceCount(), info.pieceCount());
  EXPECT_EQ(md.popularity, info.popularity);
  EXPECT_FALSE(md.keywords.empty());
}

TEST(FileCatalog, PieceBytesDeterministicAndSized) {
  FileCatalog catalog;
  const FileId id = catalog.publish(sampleRequest());
  const FileInfo& info = *catalog.find(id);
  const auto bytes1 = makePieceBytes(info, 0);
  const auto bytes2 = makePieceBytes(info, 0);
  EXPECT_EQ(bytes1, bytes2);
  EXPECT_EQ(bytes1.size(), 1024u);
  EXPECT_EQ(makePieceBytes(info, 2).size(), 452u);
  EXPECT_NE(makePieceBytes(info, 0), makePieceBytes(info, 1));
}

TEST(FileCatalog, ChecksumsVerifyGeneratedPieces) {
  FileCatalog catalog;
  const FileId id = catalog.publish(sampleRequest());
  const FileInfo& info = *catalog.find(id);
  for (std::uint32_t p = 0; p < info.pieceCount(); ++p) {
    const auto bytes = makePieceBytes(info, p);
    EXPECT_EQ(catalog.metadataFor(id).pieceChecksums[p], Sha1::hash(bytes));
  }
}

TEST(FileCatalog, VerifyRejectsCorruptPiece) {
  FileCatalog catalog;
  const FileId id = catalog.publish(sampleRequest());
  auto bytes = makePieceBytes(*catalog.find(id), 0);
  bytes[10] ^= 0xff;
  EXPECT_NE(catalog.metadataFor(id).pieceChecksums[0], Sha1::hash(bytes));
}

TEST(FileCatalog, SignsWhenRegistryProvided) {
  PublisherRegistry registry;
  registry.registerPublisher("fox", "secret");
  FileCatalog catalog(&registry);
  const FileId id = catalog.publish(sampleRequest());
  EXPECT_TRUE(registry.verify(catalog.metadataFor(id)));
}

TEST(FileCatalog, AliveFilesFiltersByTime) {
  FileCatalog catalog;
  auto req = sampleRequest();
  req.publishedAt = 0;
  req.ttl = 100;
  const FileId early = catalog.publish(req);
  req.publishedAt = 1000;
  const FileId late = catalog.publish(req);
  EXPECT_EQ(catalog.aliveFiles(50), (std::vector<FileId>{early}));
  EXPECT_EQ(catalog.aliveFiles(1050), (std::vector<FileId>{late}));
  EXPECT_TRUE(catalog.aliveFiles(500).empty());
  EXPECT_EQ(catalog.allFiles().size(), 2u);
}

// aliveFiles starts its scan at firstUnexpired: with publish times out of
// id order and TTLs from an hour to four days, both must agree with a scan
// of every file at every instant where some file starts or stops being
// alive, one second either side, and at random instants.
TEST(FileCatalog, AliveFilesMatchAFullScan) {
  FileCatalog catalog;
  Rng rng(21);
  std::vector<SimTime> instants = {0, 20 * kDay};
  for (int i = 0; i < 200; ++i) {
    auto req = sampleRequest();
    req.sizeBytes = 10;
    req.publishedAt = rng.uniformInt(0, 10 * kDay);
    req.ttl = rng.uniformInt(kHour, 4 * kDay);
    catalog.publish(req);
    for (const SimTime t : {req.publishedAt, req.publishedAt + req.ttl}) {
      instants.insert(instants.end(), {t - 1, t, t + 1});
    }
    instants.push_back(rng.uniformInt(0, 15 * kDay));
  }
  for (const SimTime now : instants) {
    std::vector<FileId> alive;
    std::uint32_t firstUnexpired = static_cast<std::uint32_t>(catalog.size());
    for (const FileId id : catalog.allFiles()) {
      const FileInfo& info = *catalog.find(id);
      if (info.alive(now)) alive.push_back(id);
      if (info.expiresAt() > now) {
        firstUnexpired = std::min(firstUnexpired, id.value);
      }
    }
    EXPECT_EQ(catalog.aliveFiles(now), alive) << "at " << now;
    EXPECT_EQ(catalog.firstUnexpired(now), firstUnexpired) << "at " << now;
  }
}

TEST(FileCatalog, SetPopularityPublishesNewSnapshot) {
  FileCatalog catalog;
  const FileId id = catalog.publish(sampleRequest());
  const SharedMetadata before = catalog.sharedMetadataFor(id);
  EXPECT_EQ(&catalog.metadataFor(id), before.get());
  catalog.setPopularity(id, 0.9);
  // Holders of the old record keep its popularity; the catalog moves on.
  EXPECT_DOUBLE_EQ(before->popularity, 0.4);
  EXPECT_DOUBLE_EQ(catalog.metadataFor(id).popularity, 0.9);
  EXPECT_DOUBLE_EQ(catalog.find(id)->popularity, 0.9);
  Metadata expected = *before;
  expected.popularity = 0.9;
  EXPECT_EQ(catalog.metadataFor(id), expected);
}

TEST(FileCatalog, DistinctFilesDistinctChecksums) {
  FileCatalog catalog;
  const FileId a = catalog.publish(sampleRequest());
  const FileId b = catalog.publish(sampleRequest());
  // Same content parameters but different URIs -> different streams.
  EXPECT_NE(catalog.metadataFor(a).pieceChecksums[0],
            catalog.metadataFor(b).pieceChecksums[0]);
}

}  // namespace
}  // namespace hdtn::core
