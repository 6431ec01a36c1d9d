#include "src/core/metadata_store.hpp"

#include <gtest/gtest.h>

namespace hdtn::core {
namespace {

Metadata makeMetadata(std::uint32_t id, double popularity, SimTime published,
                      Duration ttl) {
  Metadata md;
  md.file = FileId(id);
  md.name = "file " + std::to_string(id);
  md.publisher = "pub";
  md.uri = "dtn://pub/f" + std::to_string(id);
  md.popularity = popularity;
  md.publishedAt = published;
  md.ttl = ttl;
  md.rebuildKeywords();
  return md;
}

TEST(MetadataStore, AddAndGet) {
  MetadataStore store;
  EXPECT_TRUE(store.add(makeMetadata(1, 0.5, 0, 100)));
  EXPECT_FALSE(store.add(makeMetadata(1, 0.5, 0, 100)));  // duplicate
  EXPECT_TRUE(store.has(FileId(1)));
  EXPECT_FALSE(store.has(FileId(2)));
  ASSERT_NE(store.get(FileId(1)), nullptr);
  EXPECT_EQ(store.get(FileId(1))->popularity, 0.5);
  EXPECT_EQ(store.get(FileId(9)), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(MetadataStore, RefreshKeepsHigherPopularity) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.3, 0, 100));
  store.add(makeMetadata(1, 0.8, 0, 100));  // popularity rose
  EXPECT_DOUBLE_EQ(store.get(FileId(1))->popularity, 0.8);
  store.add(makeMetadata(1, 0.1, 0, 100));  // stale snapshot ignored
  EXPECT_DOUBLE_EQ(store.get(FileId(1))->popularity, 0.8);
}

TEST(MetadataStore, ExpireDropsOldRecords) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.5, 0, 100));
  store.add(makeMetadata(2, 0.5, 50, 100));
  EXPECT_EQ(store.expire(100), 1u);  // file 1 expires exactly at 100
  EXPECT_FALSE(store.has(FileId(1)));
  EXPECT_TRUE(store.has(FileId(2)));
  EXPECT_EQ(store.expire(100), 0u);  // idempotent
}

TEST(MetadataStore, ExpireSeesRecordArrivingBelowWatermark) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.5, 0, 1000));
  EXPECT_EQ(store.expire(10), 0u);  // scan: nothing expires before 1000
  store.add(makeMetadata(2, 0.5, 0, 50));  // expires before the bound
  EXPECT_EQ(store.expire(49), 0u);
  EXPECT_EQ(store.expire(50), 1u);
  EXPECT_FALSE(store.has(FileId(2)));
  EXPECT_TRUE(store.has(FileId(1)));
}

TEST(MetadataStore, ExpireExactlyAtExpiresAt) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.5, 10, 100));
  EXPECT_EQ(store.expire(109), 0u);
  EXPECT_TRUE(store.has(FileId(1)));
  EXPECT_EQ(store.expire(110), 1u);
  EXPECT_TRUE(store.empty());
}

TEST(MetadataStore, PopularityRefreshKeepsOriginalExpiry) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.3, 0, 100));
  EXPECT_EQ(store.expire(50), 0u);
  // A refresh raises popularity only; the later publish time is ignored.
  store.add(makeMetadata(1, 0.8, 60, 100));
  EXPECT_EQ(store.expire(99), 0u);
  EXPECT_EQ(store.expire(100), 1u);
  EXPECT_FALSE(store.has(FileId(1)));
}

TEST(MetadataStore, ExpireAfterLoadStateSeesRestoredRecords) {
  MetadataStore source;
  source.add(makeMetadata(1, 0.5, 0, 100));
  Serializer out;
  source.saveState(out);

  MetadataStore restored;
  restored.add(makeMetadata(2, 0.5, 0, 1000));
  EXPECT_EQ(restored.expire(10), 0u);  // watermark now 1000
  Deserializer in(out.bytes());
  restored.loadState(in);
  EXPECT_EQ(restored.expire(99), 0u);
  EXPECT_EQ(restored.expire(100), 1u);
  EXPECT_TRUE(restored.empty());
}

TEST(MetadataStore, RemoveSpecific) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.5, 0, 100));
  store.remove(FileId(1));
  EXPECT_TRUE(store.empty());
}

TEST(MetadataStore, AllSortedByFileId) {
  MetadataStore store;
  store.add(makeMetadata(5, 0.1, 0, 100));
  store.add(makeMetadata(1, 0.9, 0, 100));
  store.add(makeMetadata(3, 0.5, 0, 100));
  const auto all = store.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->file, FileId(1));
  EXPECT_EQ(all[1]->file, FileId(3));
  EXPECT_EQ(all[2]->file, FileId(5));
}

TEST(MetadataStore, ByPopularityDescendingWithIdTiebreak) {
  MetadataStore store;
  store.add(makeMetadata(5, 0.5, 0, 100));
  store.add(makeMetadata(1, 0.9, 0, 100));
  store.add(makeMetadata(3, 0.5, 0, 100));
  const auto sorted = store.byPopularity();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0]->file, FileId(1));
  EXPECT_EQ(sorted[1]->file, FileId(3));  // tie broken by smaller id
  EXPECT_EQ(sorted[2]->file, FileId(5));
}

TEST(MetadataStore, BoundedStoreEvictsLowestPopularity) {
  MetadataStore store(2);
  std::vector<FileId> shed;
  store.setEvictionHook([&](const Metadata& md) { shed.push_back(md.file); });
  EXPECT_TRUE(store.add(makeMetadata(1, 0.2, 0, 100)));
  EXPECT_TRUE(store.add(makeMetadata(2, 0.5, 0, 100)));
  // A more popular record displaces the least-popular stored one.
  EXPECT_TRUE(store.add(makeMetadata(3, 0.9, 0, 100)));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.has(FileId(1)));
  EXPECT_TRUE(store.has(FileId(2)));
  EXPECT_TRUE(store.has(FileId(3)));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], FileId(1));
}

TEST(MetadataStore, BoundedStoreShedsIncomingWhenLeastPopular) {
  MetadataStore store(2);
  std::vector<FileId> shed;
  store.setEvictionHook([&](const Metadata& md) { shed.push_back(md.file); });
  store.add(makeMetadata(1, 0.5, 0, 100));
  store.add(makeMetadata(2, 0.7, 0, 100));
  // The incoming record is the victim: admission refused, store unchanged.
  EXPECT_FALSE(store.add(makeMetadata(3, 0.1, 0, 100)));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.has(FileId(3)));
  EXPECT_TRUE(store.has(FileId(1)));
  EXPECT_TRUE(store.has(FileId(2)));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], FileId(3));
}

TEST(MetadataStore, BoundedEvictionTiesBreakOldestFirst) {
  MetadataStore store(2);
  std::vector<FileId> shed;
  store.setEvictionHook([&](const Metadata& md) { shed.push_back(md.file); });
  store.add(makeMetadata(5, 0.4, 0, 100));  // oldest at the tied popularity
  store.add(makeMetadata(2, 0.4, 0, 100));
  store.add(makeMetadata(9, 0.8, 0, 100));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], FileId(5));  // insertion order, not file id
  EXPECT_TRUE(store.has(FileId(2)));
}

TEST(MetadataStore, BoundedRefreshNeverEvicts) {
  MetadataStore store(2);
  bool fired = false;
  store.setEvictionHook([&](const Metadata&) { fired = true; });
  store.add(makeMetadata(1, 0.3, 0, 100));
  store.add(makeMetadata(2, 0.6, 0, 100));
  // Refreshing a held record is not an insertion: no capacity pressure.
  EXPECT_FALSE(store.add(makeMetadata(1, 0.9, 0, 100)));
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(store.get(FileId(1))->popularity, 0.9);
}

TEST(MetadataStore, BoundedSaveLoadRoundTripKeepsEvictionOrder) {
  MetadataStore store(3);
  store.add(makeMetadata(1, 0.5, 0, 100));
  store.add(makeMetadata(2, 0.5, 0, 100));
  store.add(makeMetadata(3, 0.9, 0, 100));
  Serializer out;
  store.saveState(out);
  MetadataStore restored(3);
  Deserializer in(out.bytes());
  restored.loadState(in);
  EXPECT_EQ(restored.size(), 3u);
  // The restored store must evict the same victim the original would:
  // insertion seq survives the round trip.
  std::vector<FileId> shed;
  restored.setEvictionHook([&](const Metadata& md) { shed.push_back(md.file); });
  restored.add(makeMetadata(4, 0.8, 0, 100));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], FileId(1));  // tied with 2 on popularity, but older
}

}  // namespace
}  // namespace hdtn::core
