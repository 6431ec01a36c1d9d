// End-to-end scenario and trend tests of the full system.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "src/core/engine.hpp"
#include "src/graph/space_time.hpp"
#include "src/trace/dieselnet.hpp"
#include "src/trace/nus.hpp"

namespace hdtn::core {
namespace {

trace::ContactTrace nusTrace(std::uint64_t seed, double attendance = 0.9) {
  trace::NusParams p;
  p.students = 60;
  p.courses = 12;
  p.coursesPerStudent = 3;
  p.days = 6;
  p.attendanceRate = attendance;
  p.seed = seed;
  return trace::generateNus(p);
}

EngineParams mbtParams(std::uint64_t seed) {
  EngineParams params;
  params.protocol.kind = ProtocolKind::kMbt;
  params.internetAccessFraction = 0.3;
  params.newFilesPerDay = 20;
  params.fileTtlDays = 2;
  params.frequentContactPeriod = kDay;
  params.seed = seed;
  return params;
}

// A three-node line: node 0 (Internet access) repeatedly meets node 1; node
// 1 repeatedly meets node 2; nodes 0 and 2 never meet. Any file reaching
// node 2 proves multi-hop store-carry-forward relay through node 1,
// including the cooperative chain: 2 advertises a wanted URI, 1 relays the
// request, 0 fetches the file from the Internet and hands it to 1, which
// carries it to 2.
trace::ContactTrace lineTrace(int days) {
  trace::ContactTrace t("line", 3);
  for (int day = 0; day < days; ++day) {
    const SimTime base = static_cast<SimTime>(day) * kDay;
    for (SimTime hour : {15, 17, 19, 21}) {
      trace::Contact c;
      c.start = base + hour * kHour;
      c.end = c.start + 10 * kMinute;
      c.members = {NodeId(0), NodeId(1)};
      t.addContact(c);
    }
    for (SimTime hour : {16, 18, 20, 22}) {
      trace::Contact c;
      c.start = base + hour * kHour;
      c.end = c.start + 10 * kMinute;
      c.members = {NodeId(1), NodeId(2)};
      t.addContact(c);
    }
  }
  t.sortByStart();
  return t;
}

TEST(Integration, MultiHopRelayDeliversToIsolatedNode) {
  const auto trace = lineTrace(6);
  EngineParams params = mbtParams(11);
  params.explicitAccessNodes = {NodeId(0)};
  params.newFilesPerDay = 20;
  params.metadataPerContact = 10;
  params.filesPerContact = 4;
  Engine engine(trace, params);
  engine.run();
  // Node 2 never meets the access node, yet some of its queries must have
  // been served through node 1.
  std::size_t node2Queries = 0, node2Files = 0;
  const MetricsCollector& metrics = engine.metrics();
  for (std::uint32_t i = 0; i < metrics.queryCount(); ++i) {
    const auto record = metrics.record(QueryId(i));
    if (record.owner != NodeId(2)) continue;
    ++node2Queries;
    if (record.fileAt) ++node2Files;
  }
  ASSERT_GT(node2Queries, 0u);
  EXPECT_GT(node2Files, 0u);
}

TEST(Integration, DiscoveryProtocolBeatsPurePushOnLine) {
  const auto trace = lineTrace(6);
  EngineParams params = mbtParams(11);
  params.explicitAccessNodes = {NodeId(0)};
  params.metadataPerContact = 10;
  params.filesPerContact = 4;
  const auto mbt = runSimulation(trace, params);
  params.protocol.kind = ProtocolKind::kMbtQm;
  const auto mbtQm = runSimulation(trace, params);
  EXPECT_GE(mbt.delivery.fileRatio, mbtQm.delivery.fileRatio);
  EXPECT_GT(mbt.delivery.metadataRatio, mbtQm.delivery.metadataRatio);
}

double meanFileRatio(double accessFraction, int ttlDays, int mdBudget,
                     int fileBudget) {
  double sum = 0.0;
  const int seeds = 3;
  for (int seed = 1; seed <= seeds; ++seed) {
    EngineParams params = mbtParams(static_cast<std::uint64_t>(seed) * 101);
    params.internetAccessFraction = accessFraction;
    params.fileTtlDays = ttlDays;
    params.metadataPerContact = mdBudget;
    params.filesPerContact = fileBudget;
    sum += runSimulation(nusTrace(static_cast<std::uint64_t>(seed)), params)
               .delivery.fileRatio;
  }
  return sum / seeds;
}

TEST(Integration, MoreAccessNodesImproveFileDelivery) {
  EXPECT_GT(meanFileRatio(0.7, 2, 5, 2), meanFileRatio(0.15, 2, 5, 2));
}

TEST(Integration, LongerTtlImprovesFileDelivery) {
  EXPECT_GT(meanFileRatio(0.3, 4, 5, 2), meanFileRatio(0.3, 1, 5, 2));
}

TEST(Integration, BiggerMetadataBudgetImprovesDelivery) {
  EXPECT_GT(meanFileRatio(0.3, 2, 10, 2), meanFileRatio(0.3, 2, 1, 2));
}

TEST(Integration, BiggerFileBudgetImprovesDelivery) {
  EXPECT_GT(meanFileRatio(0.3, 2, 5, 8), meanFileRatio(0.3, 2, 5, 1));
}

TEST(Integration, HigherAttendanceImprovesDelivery) {
  double low = 0.0, high = 0.0;
  for (int seed = 1; seed <= 3; ++seed) {
    const EngineParams params = mbtParams(static_cast<std::uint64_t>(seed));
    low += runSimulation(nusTrace(static_cast<std::uint64_t>(seed), 0.5),
                         params)
               .delivery.fileRatio;
    high += runSimulation(nusTrace(static_cast<std::uint64_t>(seed), 1.0),
                          params)
                .delivery.fileRatio;
  }
  EXPECT_GT(high, low);
}

TEST(Integration, MoreFilesPerDayReduceDeliveryRatio) {
  double few = 0.0, many = 0.0;
  for (int seed = 1; seed <= 3; ++seed) {
    EngineParams params = mbtParams(static_cast<std::uint64_t>(seed));
    params.newFilesPerDay = 10;
    few += runSimulation(nusTrace(static_cast<std::uint64_t>(seed)), params)
               .delivery.fileRatio;
    params.newFilesPerDay = 80;
    many += runSimulation(nusTrace(static_cast<std::uint64_t>(seed)), params)
                .delivery.fileRatio;
  }
  EXPECT_GT(few, many);
}

TEST(Integration, ReceptionsBoundDeliveries) {
  const auto trace = nusTrace(5);
  const auto result = runSimulation(trace, mbtParams(5));
  // Every non-access file delivery requires at least one piece reception
  // (piecesPerFile = 1) and every non-access metadata delivery that is not
  // subsumed by a file requires a metadata reception.
  EXPECT_GE(result.totals.pieceReceptions,
            static_cast<std::uint64_t>(result.delivery.filesDelivered));
  EXPECT_GE(result.totals.metadataReceptions +
                result.totals.pieceReceptions,
            static_cast<std::uint64_t>(result.delivery.metadataDelivered));
}

TEST(Integration, NonAccessRatiosStayBelowAccess) {
  const auto trace = nusTrace(7);
  const auto result = runSimulation(trace, mbtParams(7));
  EXPECT_LE(result.delivery.fileRatio, result.accessDelivery.fileRatio);
  EXPECT_LE(result.delivery.metadataRatio,
            result.accessDelivery.metadataRatio);
}

TEST(Integration, DieselNetEndToEnd) {
  trace::DieselNetParams p;
  p.buses = 20;
  p.routes = 4;
  p.days = 8;
  p.seed = 2;
  const auto trace = trace::generateDieselNet(p);
  EngineParams params = mbtParams(3);
  params.frequentContactPeriod = 3 * kDay;
  params.fileTtlDays = 3;
  const auto result = runSimulation(trace, params);
  EXPECT_GT(result.delivery.fileRatio, 0.05);
  EXPECT_GT(result.delivery.metadataRatio, result.delivery.fileRatio - 1e-9);
}

TEST(Integration, DeliveryNeverBeatsSpaceTimeOracle) {
  // Files enter the DTN only through Internet-access nodes, so no query of
  // a non-access node can be file-served earlier than the foremost journey
  // from the nearest access node starting at the query's issue time — the
  // space-time graph gives a hard lower bound the protocol must respect.
  const auto trace = nusTrace(13);
  EngineParams params = mbtParams(13);
  Engine engine(trace, params);
  engine.run();
  const graph::SpaceTimeGraph stg(trace);
  const auto access = engine.accessNodes();
  // Cache oracle arrivals per (access node, issue time).
  std::map<std::pair<NodeId, SimTime>, std::vector<SimTime>> cache;
  int checked = 0;
  const MetricsCollector& metrics = engine.metrics();
  for (std::uint32_t i = 0; i < metrics.queryCount(); ++i) {
    const auto record = metrics.record(QueryId(i));
    if (!record.fileAt) continue;
    const Node& owner = engine.node(record.owner);
    if (owner.options().internetAccess) continue;
    SimTime bound = kTimeInfinity;
    for (NodeId a : access) {
      auto key = std::make_pair(a, record.issuedAt);
      auto it = cache.find(key);
      if (it == cache.end()) {
        it = cache.emplace(key, stg.earliestArrivals(a, record.issuedAt))
                 .first;
      }
      bound = std::min(bound, it->second[record.owner.value]);
    }
    ASSERT_NE(bound, kTimeInfinity);
    EXPECT_GE(*record.fileAt, bound);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(Integration, BoundedStorageDegradesGracefully) {
  const auto trace = nusTrace(17);
  EngineParams params = mbtParams(17);
  const auto unbounded = runSimulation(trace, params);
  params.nodePieceCapacity = 3;  // severe squeeze
  const auto bounded = runSimulation(trace, params);
  EXPECT_GT(bounded.delivery.fileRatio, 0.0);
  EXPECT_LE(bounded.delivery.fileRatio,
            unbounded.delivery.fileRatio + 1e-9);
  EXPECT_DOUBLE_EQ(bounded.accessDelivery.metadataRatio, 1.0);
}

TEST(Integration, DelaysPositiveAndBounded) {
  const auto trace = nusTrace(9);
  EngineParams params = mbtParams(9);
  Engine engine(trace, params);
  engine.run();
  const MetricsCollector& metrics = engine.metrics();
  for (std::uint32_t i = 0; i < metrics.queryCount(); ++i) {
    const auto record = metrics.record(QueryId(i));
    if (record.metadataAt) {
      EXPECT_GE(*record.metadataAt, record.issuedAt);
      EXPECT_LT(*record.metadataAt, record.expiresAt());
    }
    if (record.fileAt) {
      EXPECT_GE(*record.fileAt, record.issuedAt);
      EXPECT_LT(*record.fileAt, record.expiresAt());
    }
  }
}

}  // namespace
}  // namespace hdtn::core
