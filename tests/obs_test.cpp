// Observability layer: event-stream invariants against the engine totals,
// the JSONL sink, multicast fan-out, and the time-series sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/engine.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/events.hpp"
#include "src/obs/timeseries.hpp"
#include "src/trace/nus.hpp"

namespace hdtn::obs {
namespace {

using core::Engine;
using core::EngineParams;
using core::EngineResult;
using core::ProtocolKind;

trace::ContactTrace smallTrace(std::uint64_t seed = 3) {
  trace::NusParams p;
  p.students = 40;
  p.courses = 8;
  p.coursesPerStudent = 2;
  p.days = 5;
  p.attendanceRate = 0.9;
  p.seed = seed;
  return trace::generateNus(p);
}

EngineParams baseParams(ProtocolKind kind = ProtocolKind::kMbt) {
  EngineParams params;
  params.protocol.kind = kind;
  params.internetAccessFraction = 0.3;
  params.newFilesPerDay = 20;
  params.fileTtlDays = 2;
  params.seed = 7;
  params.frequentContactPeriod = kDay;
  return params;
}

void expectResultsIdentical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.delivery.queries, b.delivery.queries);
  EXPECT_EQ(a.delivery.metadataDelivered, b.delivery.metadataDelivered);
  EXPECT_EQ(a.delivery.filesDelivered, b.delivery.filesDelivered);
  EXPECT_EQ(a.delivery.metadataRatio, b.delivery.metadataRatio);
  EXPECT_EQ(a.delivery.fileRatio, b.delivery.fileRatio);
  EXPECT_EQ(a.delivery.meanMetadataDelaySeconds,
            b.delivery.meanMetadataDelaySeconds);
  EXPECT_EQ(a.delivery.meanFileDelaySeconds,
            b.delivery.meanFileDelaySeconds);
  EXPECT_EQ(a.accessDelivery.queries, b.accessDelivery.queries);
  EXPECT_EQ(a.accessDelivery.fileRatio, b.accessDelivery.fileRatio);
  EXPECT_EQ(a.totals.contactsProcessed, b.totals.contactsProcessed);
  EXPECT_EQ(a.totals.filesPublished, b.totals.filesPublished);
  EXPECT_EQ(a.totals.queriesGenerated, b.totals.queriesGenerated);
  EXPECT_EQ(a.totals.metadataBroadcasts, b.totals.metadataBroadcasts);
  EXPECT_EQ(a.totals.pieceBroadcasts, b.totals.pieceBroadcasts);
  EXPECT_EQ(a.totals.metadataReceptions, b.totals.metadataReceptions);
  EXPECT_EQ(a.totals.pieceReceptions, b.totals.pieceReceptions);
  EXPECT_EQ(a.totals.forgeriesCrafted, b.totals.forgeriesCrafted);
  EXPECT_EQ(a.totals.forgeriesAccepted, b.totals.forgeriesAccepted);
  EXPECT_EQ(a.totals.forgeriesRejected, b.totals.forgeriesRejected);
}

void expectEventCountsMatchTotals(const CountingObserver& counter,
                                  const core::EngineTotals& totals) {
  EXPECT_EQ(counter.count(SimEventType::kContactBegin),
            totals.contactsProcessed);
  EXPECT_EQ(counter.count(SimEventType::kContactEnd),
            totals.contactsProcessed);
  EXPECT_EQ(counter.count(SimEventType::kCliqueFormed),
            totals.contactsProcessed);
  EXPECT_EQ(counter.count(SimEventType::kFilePublished),
            totals.filesPublished);
  EXPECT_EQ(counter.count(SimEventType::kMetadataBroadcast),
            totals.metadataBroadcasts);
  EXPECT_EQ(counter.count(SimEventType::kMetadataAccepted) +
                counter.count(SimEventType::kMetadataRejected),
            totals.metadataReceptions);
  EXPECT_EQ(counter.count(SimEventType::kPieceBroadcast),
            totals.pieceBroadcasts);
  EXPECT_EQ(counter.count(SimEventType::kPieceReceived),
            totals.pieceReceptions);
  EXPECT_EQ(counter.count(SimEventType::kForgeryCrafted),
            totals.forgeriesCrafted);
  EXPECT_EQ(counter.count(SimEventType::kForgeryAccepted),
            totals.forgeriesAccepted);
}

TEST(Observer, EventCountsMatchEngineTotals) {
  const auto trace = smallTrace();
  Engine engine(trace, baseParams());
  CountingObserver counter;
  engine.setObserver(&counter);
  const EngineResult result = engine.run();
  EXPECT_GT(counter.total(), 0u);
  expectEventCountsMatchTotals(counter, result.totals);
  // Every contact plans a discovery and a download phase under MBT.
  EXPECT_EQ(counter.count(SimEventType::kDiscoveryPlanned),
            result.totals.contactsProcessed);
  EXPECT_EQ(counter.count(SimEventType::kDownloadPlanned),
            result.totals.contactsProcessed);
}

TEST(Observer, MbtQmSkipsDiscoveryEntirely) {
  // MBT-QM distributes no metadata: the discovery phase never runs, which
  // the plan events make directly visible.
  const auto trace = smallTrace();
  Engine engine(trace, baseParams(ProtocolKind::kMbtQm));
  CountingObserver counter;
  engine.setObserver(&counter);
  const EngineResult result = engine.run();
  expectEventCountsMatchTotals(counter, result.totals);
  EXPECT_EQ(counter.count(SimEventType::kDiscoveryPlanned), 0u);
  EXPECT_EQ(counter.count(SimEventType::kMetadataBroadcast), 0u);
  EXPECT_EQ(counter.count(SimEventType::kDownloadPlanned),
            result.totals.contactsProcessed);
}

TEST(Observer, EventCountsMatchTotalsWithForgersAndVerification) {
  const auto trace = smallTrace();
  auto params = baseParams();
  params.forgerFraction = 0.2;
  params.verifyMetadata = true;
  Engine engine(trace, params);
  CountingObserver counter;
  engine.setObserver(&counter);
  const EngineResult result = engine.run();
  ASSERT_GT(result.totals.forgeriesCrafted, 0u);
  expectEventCountsMatchTotals(counter, result.totals);
  // Verification on: forged records are rejected at reception, never stored.
  EXPECT_EQ(counter.count(SimEventType::kForgeryAccepted), 0u);
  EXPECT_GT(counter.count(SimEventType::kMetadataRejected), 0u);
}

TEST(Observer, PairwiseModeKeepsBroadcastInvariant) {
  const auto trace = smallTrace();
  auto params = baseParams();
  params.downloadMode = core::DownloadMode::kPairwise;
  Engine engine(trace, params);
  CountingObserver counter;
  engine.setObserver(&counter);
  const EngineResult result = engine.run();
  expectEventCountsMatchTotals(counter, result.totals);
}

TEST(Observer, AttachedObserverDoesNotChangeResults) {
  const auto trace = smallTrace();
  const EngineResult bare = core::runSimulation(trace, baseParams());
  Engine engine(trace, baseParams());
  NullObserver sink;
  engine.setObserver(&sink);
  expectResultsIdentical(bare, engine.run());
}

TEST(Observer, MulticastFansOutToEverySink) {
  const auto trace = smallTrace();
  CountingObserver a, b;
  MulticastObserver fan;
  fan.add(&a);
  fan.add(nullptr);  // optional sinks compose without guards
  fan.add(&b);
  EXPECT_EQ(fan.sinkCount(), 2u);
  Engine engine(trace, baseParams());
  engine.setObserver(&fan);
  engine.run();
  EXPECT_GT(a.total(), 0u);
  EXPECT_EQ(a.total(), b.total());
  for (std::size_t i = 0; i < kSimEventTypeCount; ++i) {
    EXPECT_EQ(a.count(static_cast<SimEventType>(i)),
              b.count(static_cast<SimEventType>(i)));
  }
}

TEST(JsonlEventSink, OneWellFormedObjectPerEvent) {
  const auto trace = smallTrace();
  std::ostringstream out;
  JsonlEventSink sink(out);
  CountingObserver counter;
  MulticastObserver fan;
  fan.add(&sink);
  fan.add(&counter);
  Engine engine(trace, baseParams());
  engine.setObserver(&fan);
  engine.run();
  EXPECT_EQ(sink.eventsWritten(), counter.total());

  std::set<std::string> knownTypes;
  for (std::size_t i = 0; i < kSimEventTypeCount; ++i) {
    knownTypes.insert(simEventTypeName(static_cast<SimEventType>(i)));
  }
  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t parsed = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.substr(0, 5), "{\"t\":") << line;
    EXPECT_EQ(line.back(), '}') << line;
    const auto typePos = line.find("\"type\":\"");
    ASSERT_NE(typePos, std::string::npos) << line;
    const auto nameStart = typePos + 8;
    const auto nameEnd = line.find('"', nameStart);
    ASSERT_NE(nameEnd, std::string::npos) << line;
    EXPECT_TRUE(
        knownTypes.contains(line.substr(nameStart, nameEnd - nameStart)))
        << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, sink.eventsWritten());
}

TEST(TimeSeries, FinalSampleEqualsEndOfRunReport) {
  const auto trace = smallTrace();
  const EngineResult bare = core::runSimulation(trace, baseParams());
  Engine engine(trace, baseParams());
  TimeSeries series;
  const EngineResult sampled = runSampled(engine, 6 * kHour, series);
  // The sampled drive mode is byte-identical to run()...
  expectResultsIdentical(bare, sampled);
  // ...and the last sample is the end-of-run report itself, exactly.
  ASSERT_FALSE(series.empty());
  const TimeSeriesSample& last = series.samples().back();
  EXPECT_EQ(last.time, engine.endTime());
  expectResultsIdentical(sampled, last.result);
  // Samples are strictly ordered and cover the run at the cadence.
  SimTime prev = 0;
  for (const TimeSeriesSample& s : series.samples()) {
    EXPECT_GT(s.time, prev);
    prev = s.time;
  }
  EXPECT_GE(series.samples().size(),
            static_cast<std::size_t>(engine.endTime() / (6 * kHour)));
}

TEST(TimeSeries, SampledTotalsAreMonotone) {
  const auto trace = smallTrace();
  Engine engine(trace, baseParams());
  TimeSeries series;
  runSampled(engine, 12 * kHour, series);
  std::uint64_t contacts = 0, receptions = 0;
  for (const TimeSeriesSample& s : series.samples()) {
    EXPECT_GE(s.result.totals.contactsProcessed, contacts);
    EXPECT_GE(s.result.totals.metadataReceptions, receptions);
    contacts = s.result.totals.contactsProcessed;
    receptions = s.result.totals.metadataReceptions;
  }
}

TEST(TimeSeries, CsvSerializesEverySample) {
  const auto trace = smallTrace();
  Engine engine(trace, baseParams());
  TimeSeries series;
  runSampled(engine, kDay, series);
  std::ostringstream csv;
  series.writeCsv(csv);
  std::istringstream lines(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  // The documented schema (docs/OBSERVABILITY.md).
  EXPECT_EQ(line,
            "time_s"
            ",queries,metadata_delivered,files_delivered,metadata_ratio"
            ",file_ratio,mean_metadata_delay_s,mean_file_delay_s"
            ",access_queries,access_metadata_delivered,access_files_delivered"
            ",access_metadata_ratio,access_file_ratio"
            ",access_mean_metadata_delay_s,access_mean_file_delay_s"
            ",contacts_processed,files_published,queries_generated"
            ",metadata_broadcasts,piece_broadcasts,metadata_receptions"
            ",piece_receptions,forgeries_crafted,forgeries_accepted"
            ",forgeries_rejected");
  const std::string header = line;
  const auto columns = static_cast<std::size_t>(
      std::count(header.begin(), header.end(), ',') + 1);
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',') + 1),
              columns)
        << line;
    ++rows;
  }
  EXPECT_EQ(rows, series.samples().size());
}

TEST(TimeSeries, RunSampledRejectsBadInputs) {
  const auto trace = smallTrace();
  Engine engine(trace, baseParams());
  TimeSeries series;
  EXPECT_THROW(runSampled(engine, 0, series), std::invalid_argument);
  EXPECT_THROW(runSampled(engine, -5, series), std::invalid_argument);
  engine.run();
  EXPECT_THROW(runSampled(engine, kHour, series), std::logic_error);
  EXPECT_TRUE(series.empty());
}

}  // namespace
}  // namespace hdtn::obs
