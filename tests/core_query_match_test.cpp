// Query match rows (matches() in src/core/query.hpp) against the direct
// match, queryTokensMatchPrehashed, and the object search against the
// text-keyed search kept in tests/reference_oracles.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/internet.hpp"
#include "src/core/query.hpp"
#include "src/trace/nus.hpp"
#include "src/util/random.hpp"
#include "src/util/string_util.hpp"
#include "tests/reference_oracles.hpp"

namespace hdtn::core {
namespace {

constexpr std::uint32_t kForgedIdBase = 1u << 24;

// The lowest file id unexpired at `t`, by a scan of every file.
std::uint32_t lowestUnexpired(const FileCatalog& catalog, SimTime t) {
  for (const FileId id : catalog.allFiles()) {
    if (catalog.find(id)->expiresAt() > t) return id.value;
  }
  return static_cast<std::uint32_t>(catalog.size());
}

std::string describe(const FileQuery& query, const Metadata& md) {
  std::ostringstream out;
  out << "query \"" << query.text << "\" issued at " << query.issuedAt
      << ", record of file " << md.file.value << " \"" << md.name << "\"";
  return out.str();
}

// Asks every query about every record twice (the second ask reads what the
// first stored) and expects the direct match each time. A catalog's own
// record object must be answered by the row exactly when its file is at or
// past the lowest file unexpired at the query's issue time; every other
// record is matched directly.
void expectRowAnswers(const std::vector<SharedQuery>& queries,
                      const std::vector<SharedMetadata>& records,
                      const FileCatalog& catalog) {
  std::size_t wrong = 0;
  std::size_t misplaced = 0;
  std::string firstWrong;
  std::string firstMisplaced;
  for (int pass = 0; pass < 2; ++pass) {
    for (const SharedQuery& query : queries) {
      const std::uint32_t base = lowestUnexpired(catalog, query->issuedAt);
      for (const SharedMetadata& md : records) {
        const bool expected = queryTokensMatchPrehashed(
            query->tokens, query->tokenHashes, *md);
        const std::uint64_t directBefore = catalog.matchCounts().direct;
        if (matches(*query, *md, &catalog) != expected && wrong++ == 0) {
          firstWrong = describe(*query, *md);
        }
        const bool rowed = catalog.holds(*md) && md->file.value >= base;
        const bool answeredDirectly =
            catalog.matchCounts().direct != directBefore;
        if (answeredDirectly == rowed && misplaced++ == 0) {
          firstMisplaced = describe(*query, *md) +
                           (rowed ? " was matched directly"
                                  : " was answered from the row");
        }
      }
    }
  }
  EXPECT_EQ(wrong, 0u) << "first: " << firstWrong;
  EXPECT_EQ(misplaced, 0u) << "first: " << firstMisplaced;
}

void expectRankedEqual(const std::vector<RankedMatch>& got,
                       const std::vector<RankedMatch>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].metadata, want[i].metadata) << where << " #" << i;
    EXPECT_EQ(got[i].score, want[i].score) << where << " #" << i;
  }
}

// The object search equals the text search over a full catalog scan.
void expectSearchesMatchReference(const InternetServices& internet,
                                  const std::vector<SharedQuery>& queries,
                                  SimTime now) {
  for (const SharedQuery& query : queries) {
    expectRankedEqual(internet.search(*query, now),
                      searchReference(internet, query->text, now),
                      "search \"" + query->text + "\" at " +
                          std::to_string(now));
  }
}

// A copy of `md` that some holder changed: a forger's fake under a new id,
// a record naming `md`'s file with another episode's text, or a record
// whose keyword indexes were never built.
SharedMetadata forgedCopy(const Metadata& md, std::uint32_t id) {
  auto forged = std::make_shared<Metadata>(md);
  forged->file = FileId(id);
  forged->uri = "dtn://faux/" + std::to_string(id);
  forged->rebuildKeywords();
  return forged;
}

SharedMetadata tamperedCopy(const Metadata& md) {
  auto tampered = std::make_shared<Metadata>(md);
  tampered->name = "cnn weather late ep" + std::to_string(md.file.value + 7);
  tampered->description = "re-titled";
  tampered->rebuildKeywords();
  return tampered;
}

SharedMetadata strippedCopy(const Metadata& md, bool keepKeywords) {
  auto stripped = std::make_shared<Metadata>(md);
  stripped->keywordHashes.clear();
  if (!keepKeywords) stripped->keywords.clear();
  return stripped;
}

// Six publish days of batches with mixed TTLs, two batches a day, with
// queries made at each file's publish instant (canonical and partial) and
// four known by their text alone, the empty one included. After each
// day's publishes the server replaces some records (their holders keep
// the old ones), and holders alter others: forged, tampered and stripped
// copies.
struct RandomCatalogDays {
  InternetServices internet;
  Rng rng;
  std::vector<SharedQuery> queries = {
      std::make_shared<const FileQuery>("news"),
      std::make_shared<const FileQuery>("fox sports"),
      std::make_shared<const FileQuery>("weather late"),
      std::make_shared<const FileQuery>("")};
  std::vector<SharedMetadata> held;  // records holders kept or altered
  std::uint32_t nextForged = kForgedIdBase;

  explicit RandomCatalogDays(std::uint64_t seed) : rng(seed) {}

  // Publishes day `day`'s batches and alters records; returns an instant
  // two hours after the day's first batch.
  SimTime advance(int day) {
    FileCatalog& catalog = internet.catalog();
    for (int b = 0; b < 2; ++b) {
      SyntheticBatchParams batch;
      batch.count = static_cast<int>(rng.uniformInt(4, 16));
      batch.publishedAt = day * kDay + kDailyPublishHour + b * kHour;
      batch.ttl = rng.uniformInt(1, 3) * kDay;
      batch.lambda = batch.count / 2.0;
      for (const FileId f : publishSyntheticBatch(internet, batch, rng)) {
        const FileInfo& info = *catalog.find(f);
        if (rng.chance(0.5)) {
          queries.push_back(std::make_shared<const FileQuery>(
              canonicalQueryText(info), f, info.publishedAt, info.ttl));
        }
        if (rng.chance(0.2)) {
          // "<topic> <style>": several files match.
          const auto tokens = keywordTokens(info.name);
          queries.push_back(std::make_shared<const FileQuery>(
              tokens[1] + " " + tokens[2], f, info.publishedAt, info.ttl));
        }
      }
    }
    const SimTime now = day * kDay + kDailyPublishHour + 2 * kHour;
    for (const FileId f : catalog.aliveFiles(now)) {
      const SharedMetadata current = catalog.sharedMetadataFor(f);
      if (rng.chance(0.3)) {
        // The server replaces the record; its holders keep the old one.
        held.push_back(current);
        catalog.setPopularity(f, rng.uniform(0.0, 1.0));
      }
      if (rng.chance(0.1)) held.push_back(forgedCopy(*current, nextForged++));
      if (rng.chance(0.1)) held.push_back(tamperedCopy(*current));
      if (rng.chance(0.1)) {
        held.push_back(strippedCopy(*current, rng.chance(0.5)));
      }
    }
    return now;
  }
};

// After each day of RandomCatalogDays the rows (some filled the day
// before, over fewer files) must agree with the direct match on the
// catalog's records of every file, on the old records the server
// replaced, on forged, tampered and stripped copies, and the object search
// with the text search at several instants.
TEST(QueryMatchRows, AgreeWithDirectMatchOverRandomCatalogs) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomCatalogDays run(seed);
    const FileCatalog& catalog = run.internet.catalog();
    for (int day = 0; day < 6; ++day) {
      const SimTime now = run.advance(day);
      std::vector<SharedMetadata> records = run.held;
      for (const FileId f : catalog.allFiles()) {
        records.push_back(catalog.sharedMetadataFor(f));
      }
      expectRowAnswers(run.queries, records, catalog);
      for (const SimTime at : {now - 2 * kHour, now, now + kDay / 2}) {
        expectSearchesMatchReference(run.internet, run.queries, at);
      }
    }
    // Every kind of answer was exercised.
    const MatchCounts& counts = catalog.matchCounts();
    EXPECT_GT(counts.rowHits, counts.rowFills);
    EXPECT_GT(counts.rowFills, 0u);
    EXPECT_GT(counts.direct, 0u);
  }
}

std::uint64_t answered(const MatchCounts& counts) {
  return counts.rowHits + counts.rowFills + counts.direct;
}

// Walks `query` over [begin, end) of `catalog` and expects exactly the
// files whose catalog record queryTokensMatchPrehashed accepts, ascending,
// with one counted answer per file of the window. Returns the matches.
std::vector<FileId> expectWalk(const FileQuery& query,
                               const FileCatalog& catalog, std::uint32_t begin,
                               std::uint32_t end) {
  std::vector<FileId> want;
  const auto size = static_cast<std::uint32_t>(catalog.size());
  for (std::uint32_t f = begin; f < std::min(end, size); ++f) {
    if (queryTokensMatchPrehashed(query.tokens, query.tokenHashes,
                                  catalog.metadataFor(FileId(f)))) {
      want.push_back(FileId(f));
    }
  }
  const std::uint64_t before = answered(catalog.matchCounts());
  std::vector<FileId> got;
  query.forEachMatch(catalog, begin, end,
                     [&got](FileId file) { got.push_back(file); });
  const std::string where = "query \"" + query.text + "\" issued at " +
                            std::to_string(query.issuedAt) + ", files [" +
                            std::to_string(begin) + ", " +
                            std::to_string(end) + ")";
  EXPECT_EQ(got, want) << where;
  EXPECT_EQ(answered(catalog.matchCounts()) - before,
            begin < std::min(end, size) ? std::min(end, size) - begin : 0u)
      << where;
  return got;
}

// Over RandomCatalogDays, every query walks several windows after each
// day: the whole catalog and the files alive now (both start below the
// row of a query issued later), windows around the row's start, and short
// random windows, one of them past the catalog's end. Queries walked on
// earlier days must see the files published since. A second catalog (a
// copy that publishes other text under the next file id) keeps its own
// answers, and so does the first after it.
TEST(QueryMatchRows, WalksReportExactlyTheMatchingCatalogFiles) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomCatalogDays run(seed);
    FileCatalog& catalog = run.internet.catalog();
    Rng windows(seed + 100);
    for (int day = 0; day < 6; ++day) {
      const SimTime now = run.advance(day);
      const auto size = static_cast<std::uint32_t>(catalog.size());
      for (const SharedQuery& query : run.queries) {
        const std::uint32_t base = lowestUnexpired(catalog, query->issuedAt);
        const auto a = static_cast<std::uint32_t>(windows.pickIndex(size + 1));
        const auto b = static_cast<std::uint32_t>(windows.pickIndex(size + 1));
        for (const auto& [begin, end] :
             std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                 {0, size},
                 {catalog.firstUnexpired(now), size},
                 {base, size},
                 {base > 3 ? base - 3 : 0, base + 40},
                 {base + 1, base + 33},
                 {std::min(a, b), std::max(a, b)},
                 {a, a},
                 {a, size + 70}}) {
          expectWalk(*query, catalog, begin, end);
        }
      }
    }
    const MatchCounts& counts = catalog.matchCounts();
    EXPECT_GT(counts.rowHits, counts.rowFills);
    EXPECT_GT(counts.rowFills, 0u);
    EXPECT_GT(counts.direct, 0u);

    FileCatalog second = catalog;
    ASSERT_NE(second.identity(), catalog.identity());
    FileCatalog::PublishRequest extra;
    extra.publisher = "pub";
    extra.sizeBytes = 1024;
    extra.pieceSizeBytes = 1024;
    extra.publishedAt = 6 * kDay;
    extra.ttl = kDay;
    extra.name = "news fox sports weather late extra";
    const FileId inFirst = catalog.publish(extra);
    extra.name = "drama extra";
    ASSERT_EQ(second.publish(extra), inFirst);
    const auto size = static_cast<std::uint32_t>(catalog.size());
    for (int round = 0; round < 2; ++round) {
      for (const SharedQuery& query : run.queries) {
        const auto inSecond = expectWalk(*query, second, 0, size);
        EXPECT_EQ(std::count(inSecond.begin(), inSecond.end(), inFirst), 0)
            << query->text;
        expectWalk(*query, catalog, 0, size);
      }
    }
  }
}

FileCatalog::PublishRequest named(const std::string& name) {
  FileCatalog::PublishRequest request;
  request.name = name;
  request.publisher = "pub";
  request.sizeBytes = 1024;
  request.pieceSizeBytes = 1024;
  request.popularity = 0.5;
  request.publishedAt = 0;
  request.ttl = kDay;
  return request;
}

// Asks `query` about `catalog`'s record of `file` and expects the direct
// match.
void expectAgrees(const FileQuery& query, const FileCatalog& catalog,
                  FileId file, bool expected) {
  const Metadata& md = catalog.metadataFor(file);
  ASSERT_EQ(queryTokensMatchPrehashed(query.tokens, query.tokenHashes, md),
            expected)
      << describe(query, md);
  EXPECT_EQ(matches(query, md, &catalog), expected) << describe(query, md);
}

// One query object asked against several catalogs whose records of one
// file id differ: a copy that went on publishing on its own, a catalog
// assigned another's contents, and a catalog built again in the same
// storage. Each keeps its own answers.
TEST(QueryMatchRows, EachCatalogKeepsItsOwnAnswers) {
  const FileQuery query("news");
  FileCatalog original;
  original.publish(named("news a"));
  FileCatalog copy = original;
  EXPECT_NE(copy.identity(), original.identity());
  const FileId file = original.publish(named("news b"));
  ASSERT_EQ(copy.publish(named("drama b")), file);
  for (int round = 0; round < 2; ++round) {
    expectAgrees(query, original, FileId(0), true);
    expectAgrees(query, copy, FileId(0), true);
    expectAgrees(query, original, file, true);
    expectAgrees(query, copy, file, false);
  }

  // Assigned another catalog's records, under the same address.
  FileCatalog assigned = original;
  expectAgrees(query, assigned, file, true);
  const std::uint64_t before = assigned.identity();
  assigned = copy;
  EXPECT_NE(assigned.identity(), before);
  expectAgrees(query, assigned, file, false);

  // Built again in the same storage.
  std::optional<FileCatalog> slot;
  slot.emplace();
  slot->publish(named("drama a"));
  expectAgrees(query, *slot, FileId(0), false);
  slot.emplace();
  slot->publish(named("news a"));
  expectAgrees(query, *slot, FileId(0), true);
}

trace::ContactTrace smallNusTrace() {
  trace::NusParams p;
  p.students = 40;
  p.courses = 8;
  p.coursesPerStudent = 2;
  p.days = 5;
  p.attendanceRate = 0.9;
  p.seed = 3;
  return trace::generateNus(p);
}

EngineParams mbtParams() {
  EngineParams params;
  params.protocol.kind = ProtocolKind::kMbt;
  params.internetAccessFraction = 0.3;
  params.newFilesPerDay = 20;
  params.fileTtlDays = 2;
  params.seed = 7;
  params.frequentContactPeriod = kDay;
  return params;
}

// Every query object a node asks (its own and the stored proxied ones)
// against every record a node holds and the catalog's records, then the
// object search against the text search for every query, and each node's
// ranking of its own store against the text ranking.
void expectEngineRowsAgree(const Engine& engine) {
  std::set<const FileQuery*> seen;
  std::vector<SharedQuery> queries;
  std::set<const Metadata*> seenRecords;
  std::vector<SharedMetadata> records;
  const FileCatalog& catalog = engine.internet().catalog();
  for (const FileId f : catalog.allFiles()) {
    records.push_back(catalog.sharedMetadataFor(f));
    seenRecords.insert(records.back().get());
  }
  for (std::uint32_t i = 0; i < engine.nodeCount(); ++i) {
    const Node& node = engine.node(NodeId(i));
    for (const Node::QueryState& qs : node.queryStates()) {
      if (seen.insert(qs.query.get()).second) queries.push_back(qs.query);
    }
    for (const Metadata* md : node.metadata().all()) {
      if (seenRecords.insert(md).second) {
        records.push_back(node.metadata().shared(md->file));
      }
    }
  }
  // Stored proxied queries are the owners' objects (Engine tests check
  // that), so the own queries above cover them.
  ASSERT_FALSE(queries.empty());
  expectRowAnswers(queries, records, catalog);
  expectSearchesMatchReference(engine.internet(), queries, engine.now());
  // A node ranking its own store, stale and forged records included.
  for (std::uint32_t i = 0; i < engine.nodeCount(); ++i) {
    const MetadataStore& store = engine.node(NodeId(i)).metadata();
    const auto all = store.all();
    const std::vector<const Metadata*> held(all.begin(), all.end());
    for (const Node::QueryState& qs : engine.node(NodeId(i)).queryStates()) {
      const auto ranked = rankMatches(*qs.query, held, &catalog);
      const std::string where =
          "node " + std::to_string(i) + " ranking \"" + qs.query->text + "\"";
      expectRankedEqual(ranked, rankMatchesReference(qs.query->text, held),
                        where);
      EXPECT_EQ(ranked.empty() ? nullptr : ranked.front().metadata,
                bestMatchReference(qs.query->text, store))
          << where;
    }
  }
}

// An MBT run with observed popularity (holders keep replaced records) and
// forgers, checked at several instants, saved halfway and resumed in a
// second engine whose queries start with empty rows: both runs agree with
// the direct match throughout and end with identical results.
TEST(QueryMatchRows, EngineRunAgreesAcrossACheckpointRoundTrip) {
  const auto trace = smallNusTrace();
  EngineParams params = mbtParams();
  params.useObservedPopularity = true;
  params.forgerFraction = 0.25;
  params.verifyMetadata = false;
  Engine original(trace, params);
  const SimTime half = trace.endTime() / 2;
  original.runUntil(half / 2);
  expectEngineRowsAgree(original);
  original.runUntil(half);
  expectEngineRowsAgree(original);
  const std::string path = testing::TempDir() + "/query_match_rows.ckpt";
  original.saveCheckpoint(path);

  Engine restored(trace, params);
  restored.restoreCheckpoint(path);
  expectEngineRowsAgree(restored);
  for (Engine* engine : {&original, &restored}) {
    engine->runUntil(half + half / 2);
    expectEngineRowsAgree(*engine);
  }
  const EngineResult a = original.finish();
  const EngineResult b = restored.finish();
  EXPECT_EQ(a.delivery.metadataDelivered, b.delivery.metadataDelivered);
  EXPECT_EQ(a.delivery.filesDelivered, b.delivery.filesDelivered);
  EXPECT_EQ(a.totals.metadataBroadcasts, b.totals.metadataBroadcasts);
  EXPECT_EQ(a.totals.metadataReceptions, b.totals.metadataReceptions);
  EXPECT_EQ(a.totals.forgeriesAccepted, b.totals.forgeriesAccepted);
  EXPECT_GT(restored.internet().catalog().matchCounts().direct, 0u);
}

// The saving depends on holders sharing the catalog's record objects: in
// a default MBT run every match of a catalog record is answered by a row,
// and no record is matched directly. A change that stopped sharing records
// would keep every output and lose the saving; this test would fail.
TEST(QueryMatchRows, DefaultMbtRunAnswersFromRows) {
  const auto trace = smallNusTrace();
  Engine engine(trace, mbtParams());
  engine.run();
  const MatchCounts& counts = engine.internet().catalog().matchCounts();
  EXPECT_EQ(counts.direct, 0u);
  EXPECT_GT(counts.rowFills, 0u);
  EXPECT_GT(counts.rowHits, 2 * counts.rowFills);
}

// With observed popularity the server replaces records at every publish
// instant while holders keep the old ones: those stale copies are matched
// directly, the current records still by rows.
TEST(QueryMatchRows, ObservedPopularityMatchesStaleCopiesDirectly) {
  const auto trace = smallNusTrace();
  EngineParams params = mbtParams();
  params.useObservedPopularity = true;
  Engine engine(trace, params);
  engine.run();
  const MatchCounts& counts = engine.internet().catalog().matchCounts();
  EXPECT_GT(counts.direct, 0u);
  EXPECT_GT(counts.rowHits, 0u);
}

}  // namespace
}  // namespace hdtn::core
