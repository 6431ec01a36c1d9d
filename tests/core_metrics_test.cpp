#include "src/core/metrics.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/util/random.hpp"

namespace hdtn::core {
namespace {

TEST(Metrics, RegisterAndReport) {
  MetricsCollector m;
  const QueryId a = m.registerQuery(NodeId(1), FileId(10), 0, 100, false,
                                    false);
  m.registerQuery(NodeId(2), FileId(11), 0, 100, false, false);
  m.markMetadataDelivered(a, 10);
  m.markFileDelivered(a, 20);
  const auto report = m.report(MetricScope::kNonAccess);
  EXPECT_EQ(report.queries, 2u);
  EXPECT_EQ(report.metadataDelivered, 1u);
  EXPECT_EQ(report.filesDelivered, 1u);
  EXPECT_DOUBLE_EQ(report.metadataRatio, 0.5);
  EXPECT_DOUBLE_EQ(report.fileRatio, 0.5);
  EXPECT_DOUBLE_EQ(report.meanMetadataDelaySeconds, 10.0);
  EXPECT_DOUBLE_EQ(report.meanFileDelaySeconds, 20.0);
}

TEST(Metrics, LateDeliveryIgnored) {
  MetricsCollector m;
  const QueryId a =
      m.registerQuery(NodeId(1), FileId(10), 0, 100, false, false);
  m.markMetadataDelivered(a, 100);  // at expiry: too late
  m.markFileDelivered(a, 150);
  const auto report = m.report(MetricScope::kNonAccess);
  EXPECT_EQ(report.metadataDelivered, 0u);
  EXPECT_EQ(report.filesDelivered, 0u);
}

TEST(Metrics, FirstDeliveryWins) {
  MetricsCollector m;
  const QueryId a =
      m.registerQuery(NodeId(1), FileId(10), 0, 100, false, false);
  m.markMetadataDelivered(a, 10);
  m.markMetadataDelivered(a, 20);
  EXPECT_EQ(*m.record(a).metadataAt, 10);
}

TEST(Metrics, FileDeliveryImpliesMetadataDelivery) {
  MetricsCollector m;
  const QueryId a =
      m.registerQuery(NodeId(1), FileId(10), 0, 100, false, false);
  m.markFileDelivered(a, 30);
  EXPECT_EQ(*m.record(a).metadataAt, 30);
  EXPECT_EQ(*m.record(a).fileAt, 30);
}

TEST(Metrics, OnNodeEventsMatchOwnerAndTarget) {
  MetricsCollector m;
  const QueryId a =
      m.registerQuery(NodeId(1), FileId(10), 0, 100, false, false);
  m.registerQuery(NodeId(2), FileId(10), 0, 100, false, false);
  m.onNodeGotMetadata(NodeId(1), FileId(10), 5);
  EXPECT_TRUE(m.record(a).metadataAt.has_value());
  EXPECT_FALSE(m.record(QueryId(1)).metadataAt.has_value());
  m.onNodeCompletedFile(NodeId(2), FileId(10), 7);
  EXPECT_TRUE(m.record(QueryId(1)).fileAt.has_value());
  EXPECT_FALSE(m.record(a).fileAt.has_value());
  // Events for unknown (owner, target) pairs are safely ignored.
  m.onNodeGotMetadata(NodeId(9), FileId(99), 5);
}

TEST(Metrics, DuplicateQuerySameTargetBothMarked) {
  MetricsCollector m;
  m.registerQuery(NodeId(1), FileId(10), 0, 100, false, false);
  m.registerQuery(NodeId(1), FileId(10), 10, 100, false, false);
  m.onNodeGotMetadata(NodeId(1), FileId(10), 50);
  EXPECT_TRUE(m.record(QueryId(0)).metadataAt.has_value());
  EXPECT_TRUE(m.record(QueryId(1)).metadataAt.has_value());
}

TEST(Metrics, ScopesPartitionQueries) {
  MetricsCollector m;
  m.registerQuery(NodeId(1), FileId(1), 0, 100, true, false);   // access
  m.registerQuery(NodeId(2), FileId(2), 0, 100, false, false);  // contributor
  m.registerQuery(NodeId(3), FileId(3), 0, 100, false, true);   // free rider
  EXPECT_EQ(m.report(MetricScope::kAll).queries, 3u);
  EXPECT_EQ(m.report(MetricScope::kAccess).queries, 1u);
  EXPECT_EQ(m.report(MetricScope::kNonAccess).queries, 2u);
  EXPECT_EQ(m.report(MetricScope::kNonAccessContributors).queries, 1u);
  EXPECT_EQ(m.report(MetricScope::kNonAccessFreeRiders).queries, 1u);
}

TEST(Metrics, ScopeSlicesCountOnlyTheirOwnDeliveries) {
  // A query matrix over (access, free-rider) with distinct outcomes per
  // slice, so a mis-scoped record would shift some slice's counters.
  MetricsCollector m;
  // Two access queries, both metadata-delivered, one file-delivered.
  const QueryId acc1 =
      m.registerQuery(NodeId(1), FileId(1), 0, 1000, true, false);
  const QueryId acc2 =
      m.registerQuery(NodeId(1), FileId(2), 0, 1000, true, false);
  m.markFileDelivered(acc1, 10);
  m.markMetadataDelivered(acc2, 20);
  // Three contributor queries: delivered file / delivered metadata / nothing.
  const QueryId con1 =
      m.registerQuery(NodeId(2), FileId(3), 0, 1000, false, false);
  const QueryId con2 =
      m.registerQuery(NodeId(3), FileId(4), 0, 1000, false, false);
  m.registerQuery(NodeId(2), FileId(5), 0, 1000, false, false);
  m.markFileDelivered(con1, 100);
  m.markMetadataDelivered(con2, 60);
  // One free-rider query, metadata only.
  const QueryId fr1 =
      m.registerQuery(NodeId(4), FileId(6), 0, 1000, false, true);
  m.markMetadataDelivered(fr1, 40);

  const auto all = m.report(MetricScope::kAll);
  EXPECT_EQ(all.queries, 6u);
  EXPECT_EQ(all.metadataDelivered, 5u);
  EXPECT_EQ(all.filesDelivered, 2u);

  const auto access = m.report(MetricScope::kAccess);
  EXPECT_EQ(access.queries, 2u);
  EXPECT_EQ(access.metadataDelivered, 2u);
  EXPECT_EQ(access.filesDelivered, 1u);
  EXPECT_DOUBLE_EQ(access.metadataRatio, 1.0);
  EXPECT_DOUBLE_EQ(access.fileRatio, 0.5);
  EXPECT_DOUBLE_EQ(access.meanMetadataDelaySeconds, 15.0);  // (10 + 20) / 2

  const auto nonAccess = m.report(MetricScope::kNonAccess);
  EXPECT_EQ(nonAccess.queries, 4u);
  EXPECT_EQ(nonAccess.metadataDelivered, 3u);
  EXPECT_EQ(nonAccess.filesDelivered, 1u);
  EXPECT_DOUBLE_EQ(nonAccess.fileRatio, 0.25);

  const auto contributors = m.report(MetricScope::kNonAccessContributors);
  EXPECT_EQ(contributors.queries, 3u);
  EXPECT_EQ(contributors.metadataDelivered, 2u);
  EXPECT_EQ(contributors.filesDelivered, 1u);
  EXPECT_DOUBLE_EQ(contributors.meanMetadataDelaySeconds, 80.0);
  EXPECT_DOUBLE_EQ(contributors.meanFileDelaySeconds, 100.0);

  const auto freeRiders = m.report(MetricScope::kNonAccessFreeRiders);
  EXPECT_EQ(freeRiders.queries, 1u);
  EXPECT_EQ(freeRiders.metadataDelivered, 1u);
  EXPECT_EQ(freeRiders.filesDelivered, 0u);
  EXPECT_DOUBLE_EQ(freeRiders.metadataRatio, 1.0);
  EXPECT_DOUBLE_EQ(freeRiders.fileRatio, 0.0);
  EXPECT_DOUBLE_EQ(freeRiders.meanMetadataDelaySeconds, 40.0);

  // The two non-access slices partition kNonAccess, and kAccess+kNonAccess
  // partition kAll — for the delivered counts, not just the query counts.
  EXPECT_EQ(contributors.queries + freeRiders.queries, nonAccess.queries);
  EXPECT_EQ(contributors.metadataDelivered + freeRiders.metadataDelivered,
            nonAccess.metadataDelivered);
  EXPECT_EQ(contributors.filesDelivered + freeRiders.filesDelivered,
            nonAccess.filesDelivered);
  EXPECT_EQ(access.queries + nonAccess.queries, all.queries);
  EXPECT_EQ(access.metadataDelivered + nonAccess.metadataDelivered,
            all.metadataDelivered);
  EXPECT_EQ(access.filesDelivered + nonAccess.filesDelivered,
            all.filesDelivered);
}

TEST(Metrics, AccessFreeRiderCombinationStaysOutOfFreeRiderSlice) {
  // ownerIsFreeRider on an *access* query: the non-access slices must not
  // pick it up (free-rider reporting is defined over non-access nodes).
  MetricsCollector m;
  m.registerQuery(NodeId(1), FileId(1), 0, 100, true, true);
  EXPECT_EQ(m.report(MetricScope::kAccess).queries, 1u);
  EXPECT_EQ(m.report(MetricScope::kNonAccess).queries, 0u);
  EXPECT_EQ(m.report(MetricScope::kNonAccessFreeRiders).queries, 0u);
  EXPECT_EQ(m.report(MetricScope::kNonAccessContributors).queries, 0u);
  EXPECT_EQ(m.report(MetricScope::kAll).queries, 1u);
}

TEST(Metrics, EmptyReportIsZeroed) {
  MetricsCollector m;
  const auto report = m.report(MetricScope::kNonAccess);
  EXPECT_EQ(report.queries, 0u);
  EXPECT_DOUBLE_EQ(report.metadataRatio, 0.0);
  EXPECT_DOUBLE_EQ(report.fileRatio, 0.0);
}

TEST(Metrics, MeanDelaysAverageOnlyDelivered) {
  MetricsCollector m;
  const QueryId a =
      m.registerQuery(NodeId(1), FileId(1), 0, 1000, false, false);
  const QueryId b =
      m.registerQuery(NodeId(1), FileId(2), 100, 1000, false, false);
  m.registerQuery(NodeId(1), FileId(3), 0, 1000, false, false);  // undelivered
  m.markMetadataDelivered(a, 10);
  m.markMetadataDelivered(b, 130);  // delay 30
  const auto report = m.report(MetricScope::kNonAccess);
  EXPECT_DOUBLE_EQ(report.meanMetadataDelaySeconds, 20.0);
}

// The (owner, target) index across table growth and a checkpoint round
// trip: visiting every pair once, in random order, marks each record at
// the visit of its own pair (duplicates included) and at no other.
TEST(Metrics, OwnerTargetIndexMatchesFullScan) {
  constexpr std::uint32_t kIds = 40;
  Rng rng(11);
  MetricsCollector m;
  for (int i = 0; i < 3000; ++i) {
    m.registerQuery(
        NodeId(static_cast<std::uint32_t>(rng.uniformInt(0, kIds - 1))),
        FileId(static_cast<std::uint32_t>(rng.uniformInt(0, kIds - 1))), 0,
        1 << 20, false, false);
  }
  Serializer out;
  m.saveState(out);
  MetricsCollector restored;
  Deserializer in(out.bytes());
  restored.loadState(in);

  std::vector<std::pair<NodeId, FileId>> visits;
  for (std::uint32_t owner = 0; owner < kIds; ++owner) {
    for (std::uint32_t target = 0; target < kIds; ++target) {
      visits.emplace_back(NodeId(owner), FileId(target));
    }
  }
  rng.shuffle(visits);
  for (MetricsCollector* collector : {&m, &restored}) {
    std::map<std::pair<NodeId, FileId>, SimTime> visitedAt;
    for (std::size_t k = 0; k < visits.size(); ++k) {
      const SimTime when = static_cast<SimTime>(k + 1);
      collector->onNodeGotMetadata(visits[k].first, visits[k].second, when);
      visitedAt[visits[k]] = when;
    }
    for (std::uint32_t i = 0; i < collector->queryCount(); ++i) {
      const auto r = collector->record(QueryId(i));
      ASSERT_TRUE(r.metadataAt.has_value()) << r.id.value;
      EXPECT_EQ(*r.metadataAt, visitedAt.at({r.owner, r.target})) << r.id.value;
    }
  }
}

// One record per generated query, so a record stays small.
static_assert(MetricsCollector::storedRecordBytes() <= 48);

// Records span several chunks; every one keeps its fields, and a restore
// writes the same bytes back.
TEST(Metrics, RecordsAcrossChunksRoundTrip) {
  MetricsCollector m;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    const QueryId id = m.registerQuery(NodeId(i % 97), FileId(i % 31),
                                       i, 1000 + i, i % 3 == 0, i % 5 == 0);
    ASSERT_EQ(id, QueryId(i));
    if (i % 2 == 0) m.markMetadataDelivered(id, i + 7);
    if (i % 4 == 0) m.markFileDelivered(id, i + 9);
  }
  for (const std::uint32_t i : {0u, 4095u, 4096u, 8191u, 9999u}) {
    const auto r = m.record(QueryId(i));
    EXPECT_EQ(r.id, QueryId(i));
    EXPECT_EQ(r.owner, NodeId(i % 97));
    EXPECT_EQ(r.target, FileId(i % 31));
    EXPECT_EQ(r.issuedAt, static_cast<SimTime>(i));
    EXPECT_EQ(r.ttl, static_cast<Duration>(1000 + i));
    EXPECT_EQ(r.ownerIsAccess, i % 3 == 0);
    EXPECT_EQ(r.ownerIsFreeRider, i % 5 == 0);
    EXPECT_EQ(r.metadataAt, i % 2 == 0 ? std::optional<SimTime>(i + 7)
                                       : std::nullopt);
    EXPECT_EQ(r.fileAt, i % 4 == 0 ? std::optional<SimTime>(i + 9)
                                   : std::nullopt);
  }
  Serializer out;
  m.saveState(out);
  Deserializer in(out.bytes());
  MetricsCollector restored;
  restored.loadState(in);
  Serializer again;
  restored.saveState(again);
  EXPECT_EQ(again.bytes(), out.bytes());
}

// One saved record, its id given.
void writeRecord(Serializer& out, std::uint32_t id) {
  out.u32(id);
  out.u32(1);           // owner
  out.u32(2);           // target
  out.i64(0);           // issued at
  out.i64(100);         // TTL
  out.boolean(false);   // owner is access
  out.boolean(false);   // owner is a free rider
  out.boolean(true);    // metadata delivered
  out.i64(10);
  out.boolean(false);   // file not delivered
  out.i64(0);
}

TEST(Metrics, LoadStateRejectsIdThatIsNotItsIndex) {
  for (const std::uint32_t second : {0u, 2u}) {
    Serializer out;
    out.u64(2);
    writeRecord(out, 0);
    writeRecord(out, second);
    Deserializer in(out.bytes());
    MetricsCollector m;
    EXPECT_THROW(m.loadState(in), SerializeError) << "second id " << second;
  }
  Serializer out;
  out.u64(2);
  writeRecord(out, 0);
  writeRecord(out, 1);
  Deserializer in(out.bytes());
  MetricsCollector m;
  m.loadState(in);
  EXPECT_EQ(m.record(QueryId(1)).metadataAt, std::optional<SimTime>(10));
}

}  // namespace
}  // namespace hdtn::core
