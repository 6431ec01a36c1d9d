#include "src/core/internet.hpp"

#include <gtest/gtest.h>

#include <set>

namespace hdtn::core {
namespace {

FileCatalog::PublishRequest request(const std::string& name,
                                    const std::string& publisher,
                                    double popularity, SimTime at,
                                    Duration ttl) {
  FileCatalog::PublishRequest req;
  req.name = name;
  req.publisher = publisher;
  req.description = "about " + name;
  req.sizeBytes = 1024;
  req.pieceSizeBytes = 1024;
  req.popularity = popularity;
  req.publishedAt = at;
  req.ttl = ttl;
  return req;
}

TEST(PopularityTable, ObservedCountsDistinctRequestersInWindow) {
  PopularityTable table(kDay);
  table.recordRequest(FileId(1), NodeId(1), 0);
  table.recordRequest(FileId(1), NodeId(1), 10);  // same requester
  table.recordRequest(FileId(1), NodeId(2), 20);
  EXPECT_DOUBLE_EQ(table.observed(FileId(1), 100, 10), 0.2);
  EXPECT_DOUBLE_EQ(table.observed(FileId(1), 100, 0), 0.0);
  EXPECT_DOUBLE_EQ(table.observed(FileId(9), 100, 10), 0.0);
}

TEST(PopularityTable, WindowSlides) {
  PopularityTable table(kDay);
  table.recordRequest(FileId(1), NodeId(1), 0);
  table.recordRequest(FileId(1), NodeId(2), kDay);
  // At t = kDay the first request is exactly window-old and excluded.
  EXPECT_DOUBLE_EQ(table.observed(FileId(1), kDay, 10), 0.1);
  EXPECT_DOUBLE_EQ(table.observed(FileId(1), kDay - 1, 10), 0.1);
}

TEST(InternetServices, PublishRegistersPublisherAndSigns) {
  InternetServices internet;
  const FileId id =
      internet.publish(request("fox news ep0", "fox", 0.5, 0, kDay));
  const Metadata& md = internet.catalog().metadataFor(id);
  EXPECT_TRUE(internet.registry().verify(md));
}

TEST(InternetServices, SearchFindsAliveRankedByPopularity) {
  InternetServices internet;
  internet.publish(request("fox news ep0", "fox", 0.2, 0, kDay));
  internet.publish(request("fox news ep1", "fox", 0.8, 0, kDay));
  internet.publish(request("abc drama ep2", "abc", 0.9, 0, kDay));
  const auto matches = internet.search(FileQuery("fox news"), 100);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].metadata->file, FileId(1));
  EXPECT_EQ(matches[1].metadata->file, FileId(0));
}

TEST(InternetServices, SearchExcludesExpired) {
  InternetServices internet;
  internet.publish(request("fox news ep0", "fox", 0.5, 0, 100));
  EXPECT_EQ(internet.search(FileQuery("fox news"), 50).size(), 1u);
  EXPECT_TRUE(internet.search(FileQuery("fox news"), 100).empty());
}

TEST(InternetServices, TopPopularLimited) {
  InternetServices internet;
  for (int i = 0; i < 10; ++i) {
    internet.publish(request("file ep" + std::to_string(i), "fox",
                             0.1 * i, 0, kDay));
  }
  const auto top = internet.topPopular(10, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0]->file, FileId(9));
  EXPECT_EQ(top[1]->file, FileId(8));
  EXPECT_EQ(top[2]->file, FileId(7));
}

TEST(SyntheticBatch, PublishesRequestedCount) {
  InternetServices internet;
  SyntheticBatchParams params;
  params.count = 25;
  params.publishedAt = kDailyPublishHour;
  params.ttl = 3 * kDay;
  params.lambda = 12.5;
  Rng rng(3);
  const auto files = publishSyntheticBatch(internet, params, rng);
  EXPECT_EQ(files.size(), 25u);
  EXPECT_EQ(internet.catalog().size(), 25u);
  for (FileId id : files) {
    const FileInfo& info = *internet.catalog().find(id);
    EXPECT_GE(info.popularity, 0.0);
    EXPECT_LE(info.popularity, 1.0);
    EXPECT_EQ(info.publishedAt, kDailyPublishHour);
    EXPECT_TRUE(internet.registry().verify(
        internet.catalog().metadataFor(id)));
  }
}

TEST(SyntheticBatch, CanonicalQueryUniquelyIdentifiesFile) {
  InternetServices internet;
  SyntheticBatchParams params;
  params.count = 60;
  params.publishedAt = 0;
  params.ttl = kDay;
  params.lambda = 30.0;
  Rng rng(9);
  const auto files = publishSyntheticBatch(internet, params, rng);
  for (FileId id : files) {
    const FileInfo& info = *internet.catalog().find(id);
    const auto matches = internet.search(FileQuery(canonicalQueryText(info)), 10);
    ASSERT_EQ(matches.size(), 1u) << "query: " << canonicalQueryText(info);
    EXPECT_EQ(matches[0].metadata->file, id);
  }
}

TEST(SyntheticBatch, EpisodeTokensAreUniqueAcrossBatches) {
  InternetServices internet;
  SyntheticBatchParams params;
  params.count = 10;
  params.publishedAt = 0;
  params.ttl = kDay;
  params.lambda = 5.0;
  Rng rng(1);
  publishSyntheticBatch(internet, params, rng);
  params.publishedAt = kDay;
  publishSyntheticBatch(internet, params, rng);
  std::set<std::string> queries;
  for (FileId id : internet.catalog().allFiles()) {
    queries.insert(canonicalQueryText(*internet.catalog().find(id)));
  }
  EXPECT_EQ(queries.size(), 20u);
}

}  // namespace
}  // namespace hdtn::core
