// Fault injection: parameter validation, FaultPlan determinism, and the
// engine-level guarantees — clean-path equivalence, identical event streams
// across all three drive modes, and corruption accounting (a corrupt piece
// never enters a store and every rejection is counted and evented).
#include "src/faults/faults.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/core/engine.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/events.hpp"
#include "src/trace/nus.hpp"
#include "src/util/random.hpp"

namespace hdtn::faults {
namespace {

trace::ContactTrace smallNusTrace(std::uint64_t seed = 3) {
  trace::NusParams p;
  p.students = 40;
  p.courses = 8;
  p.coursesPerStudent = 2;
  p.days = 5;
  p.attendanceRate = 0.9;
  p.seed = seed;
  return trace::generateNus(p);
}

core::EngineParams baseParams() {
  core::EngineParams params;
  params.protocol.kind = core::ProtocolKind::kMbtQm;
  params.internetAccessFraction = 0.3;
  params.newFilesPerDay = 20;
  params.fileTtlDays = 2;
  params.seed = 7;
  params.frequentContactPeriod = kDay;
  return params;
}

FaultParams allFaults() {
  FaultParams faults;
  faults.messageLossRate = 0.2;
  faults.contactTruncationRate = 0.3;
  faults.pieceCorruptionRate = 0.1;
  faults.churnDownFraction = 0.15;
  faults.churnMeanDowntime = 4 * kHour;
  return faults;
}

TEST(FaultParams, DefaultsAreDisabledAndValid) {
  FaultParams faults;
  EXPECT_FALSE(faults.enabled());
  EXPECT_TRUE(faults.validate().empty());
}

TEST(FaultParams, AnyPositiveRateEnables) {
  FaultParams faults;
  faults.pieceCorruptionRate = 0.01;
  EXPECT_TRUE(faults.enabled());
}

TEST(FaultParams, ValidateCatchesEachViolation) {
  FaultParams faults;
  faults.messageLossRate = -0.5;
  faults.contactTruncationRate = 2.0;
  faults.churnDownFraction = 1.0;
  faults.truncationKeepMin = 0.8;
  faults.truncationKeepMax = 0.2;
  EXPECT_EQ(faults.validate().size(), 4u);
}

TEST(FaultPlan, SameSeedSameSchedule) {
  const FaultParams faults = allFaults();
  FaultPlan a(faults, Rng(99), 30, 10 * kDay);
  FaultPlan b(faults, Rng(99), 30, 10 * kDay);
  EXPECT_EQ(a.totalDownIntervals(), b.totalDownIntervals());
  for (std::uint32_t i = 0; i < 30; ++i) {
    const auto& ia = a.downIntervals(NodeId(i));
    const auto& ib = b.downIntervals(NodeId(i));
    ASSERT_EQ(ia.size(), ib.size());
    for (std::size_t k = 0; k < ia.size(); ++k) {
      EXPECT_EQ(ia[k].start, ib[k].start);
      EXPECT_EQ(ia[k].end, ib[k].end);
    }
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.dropMessage(), b.dropMessage());
    EXPECT_EQ(a.corruptPiece(), b.corruptPiece());
    EXPECT_EQ(a.contactKeepFactor(), b.contactKeepFactor());
  }
}

TEST(FaultPlan, ZeroRatesDrawNothingAndNeverFire) {
  FaultParams faults;
  faults.churnDownFraction = 0.2;  // enabled, but channel rates are zero
  FaultPlan plan(faults, Rng(5), 10, 5 * kDay);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(plan.dropMessage());
    EXPECT_FALSE(plan.corruptPiece());
    EXPECT_EQ(plan.contactKeepFactor(), 1.0);
  }
}

TEST(FaultPlan, ChurnRespectsTargetFraction) {
  FaultParams faults;
  faults.churnDownFraction = 0.25;
  faults.churnMeanDowntime = 2 * kHour;
  const SimTime horizon = 200 * kDay;
  FaultPlan plan(faults, Rng(17), 40, horizon);
  std::int64_t downTotal = 0;
  for (std::uint32_t i = 0; i < 40; ++i) {
    for (const auto& interval : plan.downIntervals(NodeId(i))) {
      EXPECT_GT(interval.end, interval.start);
      EXPECT_LE(interval.end, horizon);
      downTotal += interval.end - interval.start;
    }
  }
  const double fraction =
      static_cast<double>(downTotal) / (40.0 * static_cast<double>(horizon));
  EXPECT_NEAR(fraction, 0.25, 0.03);
}

TEST(FaultPlan, IsDownMatchesIntervalTable) {
  FaultParams faults;
  faults.churnDownFraction = 0.3;
  FaultPlan plan(faults, Rng(23), 8, 20 * kDay);
  ASSERT_GT(plan.totalDownIntervals(), 0u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    for (const auto& interval : plan.downIntervals(NodeId(i))) {
      EXPECT_TRUE(plan.isDown(NodeId(i), interval.start));
      EXPECT_TRUE(plan.isDown(NodeId(i), interval.end - 1));
      EXPECT_FALSE(plan.isDown(NodeId(i), interval.end));
    }
    EXPECT_FALSE(plan.isDown(NodeId(i), -1));
  }
  EXPECT_FALSE(plan.isDown(NodeId(1000), kDay));  // out of range: always up
}

TEST(EngineFaults, DisabledFaultsBuildNoPlan) {
  const auto trace = smallNusTrace();
  core::Engine engine(trace, baseParams());
  EXPECT_EQ(engine.faultPlan(), nullptr);
}

TEST(EngineFaults, CleanRunIdenticalWithAndWithoutFaultStruct) {
  // All-zero fault rates must not perturb the run in any way.
  const auto trace = smallNusTrace();
  auto params = baseParams();
  const auto baseline = core::runSimulation(trace, params);
  params.faults = FaultParams{};  // explicitly reset, still disabled
  const auto again = core::runSimulation(trace, params);
  EXPECT_EQ(baseline.delivery.filesDelivered, again.delivery.filesDelivered);
  EXPECT_EQ(baseline.totals.pieceBroadcasts, again.totals.pieceBroadcasts);
  EXPECT_EQ(again.totals.faultMessagesDropped, 0u);
  EXPECT_EQ(again.totals.faultContactsTruncated, 0u);
}

std::string eventStream(const trace::ContactTrace& trace,
                        const core::EngineParams& params, int mode) {
  std::ostringstream out;
  obs::JsonlEventSink sink(out);
  core::Engine engine(trace, params);
  engine.setObserver(&sink);
  if (mode == 0) {
    engine.run();
  } else if (mode == 1) {
    while (engine.step()) {
    }
    engine.finish();
  } else {
    for (SimTime t = 0; t < engine.endTime(); t += 6 * kHour) {
      engine.runUntil(t);
    }
    engine.finish();
  }
  return out.str();
}

TEST(EngineFaults, EventStreamIdenticalAcrossDriveModes) {
  const auto trace = smallNusTrace();
  auto params = baseParams();
  params.faults = allFaults();
  const std::string viaRun = eventStream(trace, params, 0);
  const std::string viaStep = eventStream(trace, params, 1);
  const std::string viaSlices = eventStream(trace, params, 2);
  ASSERT_FALSE(viaRun.empty());
  EXPECT_EQ(viaRun, viaStep);
  EXPECT_EQ(viaRun, viaSlices);
  EXPECT_NE(viaRun.find("\"fault_injected\""), std::string::npos);
  EXPECT_NE(viaRun.find("\"node_down\""), std::string::npos);
}

TEST(EngineFaults, CertainCorruptionRejectsEveryPiece) {
  const auto trace = smallNusTrace();
  auto params = baseParams();
  params.faults.pieceCorruptionRate = 1.0;
  obs::CountingObserver counter;
  core::Engine engine(trace, params);
  engine.setObserver(&counter);
  const auto result = engine.run();
  // Every DTN piece transmission was corrupted in flight: nothing passed
  // its checksum, nothing entered a store.
  EXPECT_EQ(result.totals.pieceReceptions, 0u);
  EXPECT_EQ(counter.count(obs::SimEventType::kPieceReceived), 0u);
  EXPECT_GT(result.totals.faultPiecesRejectedCorrupt, 0u);
  EXPECT_EQ(counter.count(obs::SimEventType::kPieceRejectedCorrupt),
            result.totals.faultPiecesRejectedCorrupt);
  // Files still reach access nodes through the Internet path.
  EXPECT_GT(result.accessDelivery.fileRatio, 0.9);
}

TEST(EngineFaults, LossReducesDeliveryAndIsCounted) {
  const auto trace = smallNusTrace();
  auto params = baseParams();
  const auto clean = core::runSimulation(trace, params);
  params.faults.messageLossRate = 0.9;
  const auto lossy = core::runSimulation(trace, params);
  EXPECT_GT(lossy.totals.faultMessagesDropped, 0u);
  EXPECT_LT(lossy.delivery.filesDelivered, clean.delivery.filesDelivered);
}

TEST(EngineFaults, TruncationShrinksTraffic) {
  const auto trace = smallNusTrace();
  auto params = baseParams();
  const auto clean = core::runSimulation(trace, params);
  params.faults.contactTruncationRate = 1.0;
  params.faults.truncationKeepMin = 0.0;
  params.faults.truncationKeepMax = 0.2;
  const auto truncated = core::runSimulation(trace, params);
  EXPECT_GT(truncated.totals.faultContactsTruncated, 0u);
  EXPECT_LT(truncated.totals.pieceBroadcasts, clean.totals.pieceBroadcasts);
}

// --- boundary rates and degenerate churn -----------------------------------

TEST(FaultParams, BoundaryRatesAreValid) {
  FaultParams faults;
  faults.messageLossRate = 1.0;
  faults.contactTruncationRate = 1.0;
  faults.pieceCorruptionRate = 1.0;
  faults.truncationKeepMin = 0.0;
  faults.truncationKeepMax = 0.0;
  faults.churnDownFraction = 0.999;
  EXPECT_TRUE(faults.validate().empty()) << faults.validate().front();
  faults.truncationKeepMin = 1.0;
  faults.truncationKeepMax = 1.0;
  EXPECT_TRUE(faults.validate().empty()) << faults.validate().front();
}

TEST(FaultPlan, CertainRatesAlwaysFire) {
  FaultParams faults;
  faults.messageLossRate = 1.0;
  faults.pieceCorruptionRate = 1.0;
  faults.contactTruncationRate = 1.0;
  faults.truncationKeepMin = 0.5;
  faults.truncationKeepMax = 0.5;
  FaultPlan plan(faults, Rng(17), 10, 5 * kDay);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(plan.dropMessage());
    EXPECT_TRUE(plan.corruptPiece());
    EXPECT_EQ(plan.contactKeepFactor(), 0.5);
  }
}

TEST(FaultPlan, ChurnIntervalsAreClampedOrderedAndNeverZeroLength) {
  FaultParams faults;
  // High down fraction + short downtimes make start-at-zero and
  // clamped-at-horizon intervals near-certain across 1000 nodes, so the
  // boundary semantics below are exercised, not just vacuously true.
  faults.churnDownFraction = 0.9;
  faults.churnMeanDowntime = 600;
  const SimTime horizon = kDay;
  const std::uint32_t nodes = 1000;
  FaultPlan plan(faults, Rng(23), nodes, horizon);
  bool someStartsAtZero = false;
  bool someEndsAtHorizon = false;
  bool someBackToBack = false;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const auto& intervals = plan.downIntervals(NodeId(n));
    for (std::size_t k = 0; k < intervals.size(); ++k) {
      const auto& iv = intervals[k];
      EXPECT_GE(iv.start, 0);
      EXPECT_GT(iv.end, iv.start);  // zero-length intervals never emitted
      EXPECT_LE(iv.end, horizon);   // clamped to the run horizon
      // Ordered and non-overlapping; a sub-second up-gap truncates to zero,
      // so adjacent intervals may touch (the node goes straight back down).
      const bool touchesNext =
          k + 1 < intervals.size() && intervals[k + 1].start == iv.end;
      if (k + 1 < intervals.size()) {
        EXPECT_GE(intervals[k + 1].start, iv.end);
      }
      someBackToBack = someBackToBack || touchesNext;
      // isDown matches the table at both edges: start inclusive, end
      // exclusive — unless the next down interval begins at that instant.
      EXPECT_TRUE(plan.isDown(NodeId(n), iv.start));
      EXPECT_EQ(plan.isDown(NodeId(n), iv.end), touchesNext);
      if (iv.start == 0) someStartsAtZero = true;
      if (iv.end == horizon) someEndsAtHorizon = true;
    }
  }
  // The parameters above make every boundary shape actually occur: a node
  // already down at t=0, a node still down at the trace end, and
  // back-to-back intervals from a truncated-to-zero up gap.
  EXPECT_TRUE(someStartsAtZero);
  EXPECT_TRUE(someEndsAtHorizon);
  EXPECT_TRUE(someBackToBack);
  EXPECT_FALSE(plan.isDown(NodeId(0), horizon));
}

TEST(EngineFaults, TotalLossDeliversNothingOverTheDtn) {
  const auto trace = smallNusTrace();
  auto params = baseParams();
  params.faults.messageLossRate = 1.0;
  const auto result = core::runSimulation(trace, params);
  EXPECT_EQ(result.totals.metadataReceptions, 0u);
  EXPECT_EQ(result.totals.pieceReceptions, 0u);
  EXPECT_GT(result.totals.faultMessagesDropped, 0u);
  EXPECT_EQ(result.delivery.fileRatio, 0.0);
}

TEST(EngineFaults, TotalTruncationWithZeroKeepStopsAllContactTraffic) {
  const auto trace = smallNusTrace();
  auto params = baseParams();
  params.faults.contactTruncationRate = 1.0;
  params.faults.truncationKeepMin = 0.0;
  params.faults.truncationKeepMax = 0.0;
  const auto result = core::runSimulation(trace, params);
  EXPECT_EQ(result.totals.faultContactsTruncated,
            result.totals.contactsProcessed);
  EXPECT_EQ(result.totals.metadataBroadcasts, 0u);
  EXPECT_EQ(result.totals.pieceBroadcasts, 0u);
  EXPECT_EQ(result.totals.metadataReceptions, 0u);
  EXPECT_EQ(result.totals.pieceReceptions, 0u);
}

TEST(EngineFaults, ChurnEventsBalanceAndMatchTotals) {
  const auto trace = smallNusTrace();
  auto params = baseParams();
  params.faults.churnDownFraction = 0.3;
  params.faults.churnMeanDowntime = 6 * kHour;
  obs::CountingObserver counter;
  core::Engine engine(trace, params);
  engine.setObserver(&counter);
  ASSERT_NE(engine.faultPlan(), nullptr);
  const std::size_t planned = engine.faultPlan()->totalDownIntervals();
  ASSERT_GT(planned, 0u);
  const auto result = engine.run();
  EXPECT_EQ(result.totals.faultNodeDownIntervals, planned);
  EXPECT_EQ(counter.count(obs::SimEventType::kNodeDown), planned);
  EXPECT_EQ(counter.count(obs::SimEventType::kNodeUp), planned);
}

}  // namespace
}  // namespace hdtn::faults
