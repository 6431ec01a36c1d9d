#include "src/obs/timeseries.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace hdtn::obs {

namespace {

void writeReportCsv(std::ostream& out, const core::DeliveryReport& r) {
  char buf[192];
  const int n = std::snprintf(
      buf, sizeof(buf), ",%zu,%zu,%zu,%.6f,%.6f,%.1f,%.1f", r.queries,
      r.metadataDelivered, r.filesDelivered, r.metadataRatio, r.fileRatio,
      r.meanMetadataDelaySeconds, r.meanFileDelaySeconds);
  out.write(buf, n);
}

}  // namespace

void TimeSeries::writeCsvHeader(std::ostream& out) {
  out << "time_s"
         ",queries,metadata_delivered,files_delivered,metadata_ratio"
         ",file_ratio,mean_metadata_delay_s,mean_file_delay_s"
         ",access_queries,access_metadata_delivered,access_files_delivered"
         ",access_metadata_ratio,access_file_ratio"
         ",access_mean_metadata_delay_s,access_mean_file_delay_s"
         ",contacts_processed,files_published,queries_generated"
         ",metadata_broadcasts,piece_broadcasts,metadata_receptions"
         ",piece_receptions,forgeries_crafted,forgeries_accepted"
         ",forgeries_rejected\n";
}

void TimeSeries::writeCsvRow(std::ostream& out, const TimeSeriesSample& s) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%" PRId64,
                              static_cast<std::int64_t>(s.time));
  out.write(buf, n);
  writeReportCsv(out, s.result.delivery);
  writeReportCsv(out, s.result.accessDelivery);
  const core::EngineTotals& t = s.result.totals;
  const int m = std::snprintf(
      buf, sizeof(buf), ",%llu,%llu,%llu,%llu,%llu",
      static_cast<unsigned long long>(t.contactsProcessed),
      static_cast<unsigned long long>(t.filesPublished),
      static_cast<unsigned long long>(t.queriesGenerated),
      static_cast<unsigned long long>(t.metadataBroadcasts),
      static_cast<unsigned long long>(t.pieceBroadcasts));
  out.write(buf, m);
  const int k = std::snprintf(
      buf, sizeof(buf), ",%llu,%llu,%llu,%llu,%llu\n",
      static_cast<unsigned long long>(t.metadataReceptions),
      static_cast<unsigned long long>(t.pieceReceptions),
      static_cast<unsigned long long>(t.forgeriesCrafted),
      static_cast<unsigned long long>(t.forgeriesAccepted),
      static_cast<unsigned long long>(t.forgeriesRejected));
  out.write(buf, k);
}

namespace {

void throwIfFailed(std::ostream& out, const char* what) {
  out.flush();
  if (!out) {
    throw std::runtime_error(
        std::string(what) +
        ": stream entered a failed state (disk full or closed stream?); "
        "the series on disk is incomplete");
  }
}

}  // namespace

void TimeSeries::writeCsv(std::ostream& out) const {
  writeCsvHeader(out);
  for (const TimeSeriesSample& s : samples_) writeCsvRow(out, s);
  throwIfFailed(out, "TimeSeries::writeCsv");
}

core::EngineResult runSampled(core::Engine& engine, Duration cadence,
                              TimeSeries& out) {
  if (cadence <= 0) {
    throw std::invalid_argument(
        "obs::runSampled: cadence must be positive seconds");
  }
  if (engine.finished()) {
    throw std::logic_error("obs::runSampled: engine already finished");
  }
  const SimTime end = engine.endTime();
  for (SimTime t = cadence; t < end; t += cadence) {
    engine.runUntil(t);
    out.addSample(t, engine.currentResult());
  }
  const core::EngineResult result = engine.finish();
  out.addSample(end, result);
  return result;
}

}  // namespace hdtn::obs
