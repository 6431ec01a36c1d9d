#include "src/core/query.hpp"

#include <gtest/gtest.h>

#include "src/core/metadata_store.hpp"

namespace hdtn::core {
namespace {

Metadata makeMetadata(std::uint32_t id, const std::string& name,
                      const std::string& publisher,
                      const std::string& description, double popularity) {
  Metadata md;
  md.file = FileId(id);
  md.name = name;
  md.publisher = publisher;
  md.description = description;
  md.uri = "dtn://" + publisher + "/f" + std::to_string(id);
  md.popularity = popularity;
  md.ttl = 1000;
  md.rebuildKeywords();
  return md;
}

// The object path for a query known by its text alone.
std::vector<RankedMatch> rankByText(
    const std::string& text, std::initializer_list<const Metadata*> records) {
  return rankMatches(FileQuery(text), std::span<const Metadata* const>(
                                          records.begin(), records.size()));
}

const Metadata* bestMatchByText(const std::string& text,
                                const MetadataStore& store) {
  const auto all = store.all();
  const std::vector<const Metadata*> records(all.begin(), all.end());
  const auto ranked = rankMatches(FileQuery(text), records);
  return ranked.empty() ? nullptr : ranked.front().metadata;
}

TEST(QueryMatches, AllKeywordsMustAppear) {
  const Metadata md =
      makeMetadata(1, "fox news daily ep1", "fox", "breaking stories", 0.5);
  EXPECT_TRUE(queryMatches("news ep1", md));
  EXPECT_TRUE(queryMatches("fox", md));
  EXPECT_TRUE(queryMatches("breaking daily", md));  // across fields
  EXPECT_FALSE(queryMatches("news ep2", md));
  EXPECT_FALSE(queryMatches("cnn", md));
}

TEST(QueryMatches, CaseAndPunctuationInsensitive) {
  const Metadata md = makeMetadata(1, "Fox NEWS: daily-EP1", "fox", "", 0.5);
  EXPECT_TRUE(queryMatches("FOX news", md));
  EXPECT_TRUE(queryMatches("daily, ep1!", md));
}

TEST(QueryMatches, EmptyQueryMatchesNothing) {
  const Metadata md = makeMetadata(1, "fox news", "fox", "", 0.5);
  EXPECT_FALSE(queryMatches("", md));
  EXPECT_FALSE(queryMatches("   ", md));
}

TEST(QueryMatches, WorksWithoutPrecomputedKeywords) {
  Metadata md = makeMetadata(1, "fox news", "fox", "", 0.5);
  md.keywords.clear();  // hand-built metadata; falls back to tokenizing
  EXPECT_TRUE(queryMatches("news", md));
  EXPECT_FALSE(queryMatches("drama", md));
}

TEST(QueryTokensMatch, PretokenizedEquivalent) {
  const Metadata md = makeMetadata(1, "fox news daily ep1", "fox", "", 0.5);
  EXPECT_TRUE(queryTokensMatch({"news", "ep1"}, md));
  EXPECT_FALSE(queryTokensMatch({"news", "ep2"}, md));
  EXPECT_FALSE(queryTokensMatch({}, md));
}

TEST(RankMatches, FiltersAndSortsByPopularity) {
  const Metadata a = makeMetadata(1, "fox news ep1", "fox", "", 0.2);
  const Metadata b = makeMetadata(2, "fox news ep2", "fox", "", 0.9);
  const Metadata c = makeMetadata(3, "abc drama ep3", "abc", "", 0.99);
  const auto ranked = rankByText("fox news", {&a, &b, &c});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].metadata->file, FileId(2));  // more popular first
  EXPECT_EQ(ranked[1].metadata->file, FileId(1));
}

TEST(RankMatches, SpecificityBreaksPopularityTies) {
  // Same popularity; the record whose keyword set is smaller (the query
  // describes it more completely) ranks first.
  const Metadata precise = makeMetadata(1, "fox news", "fox", "", 0.5);
  const Metadata vague = makeMetadata(
      2, "fox news extra bonus content special edition", "fox", "", 0.5);
  const auto ranked = rankByText("fox news", {&vague, &precise});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].metadata->file, FileId(1));
}

TEST(RankMatches, IgnoresNullCandidates) {
  const Metadata a = makeMetadata(1, "fox news", "fox", "", 0.5);
  const auto ranked = rankByText("news", {nullptr, &a});
  ASSERT_EQ(ranked.size(), 1u);
}

TEST(BestMatch, FromStore) {
  MetadataStore store;
  store.add(makeMetadata(1, "fox news ep1", "fox", "", 0.2));
  store.add(makeMetadata(2, "fox news ep2", "fox", "", 0.8));
  const Metadata* best = bestMatchByText("fox news", store);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->file, FileId(2));
  EXPECT_EQ(bestMatchByText("nonexistent", store), nullptr);
}

TEST(Query, ExpiryBoundaries) {
  Query q;
  q.issuedAt = 100;
  q.ttl = 50;
  EXPECT_FALSE(q.expired(100));
  EXPECT_FALSE(q.expired(149));
  EXPECT_TRUE(q.expired(150));
  EXPECT_EQ(q.expiresAt(), 150);
}

// Fake-file scenario from the paper's motivation: same name, different
// publisher. Both match the name query; ranking by popularity steers the
// user to the established file, and authentication (tested elsewhere)
// exposes the forgery.
TEST(RankMatches, FakeFilesRankBelowPopularOriginals) {
  const Metadata real = makeMetadata(1, "fox news ep7", "fox", "", 0.7);
  const Metadata fake = makeMetadata(2, "fox news ep7", "faux", "", 0.01);
  const auto ranked = rankByText("fox news ep7", {&fake, &real});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].metadata->file, FileId(1));
}

}  // namespace
}  // namespace hdtn::core
