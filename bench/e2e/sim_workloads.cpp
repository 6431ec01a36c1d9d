// The three simulation workloads: nus-mbt and nus-coded-hostile drive one
// Engine over a generated NUS campus trace; city-sharded drives a
// ShardedEngine over a streamed city. Untraced repetitions call run() with
// no observer attached. Traced repetitions time the layers' public calls —
// Engine::step, ShardedEngine::runUntil, ContactStream::next — and attach a
// StageObserver for the contact-path stages.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/core/scenario.hpp"
#include "src/core/sharded_engine.hpp"
#include "src/trace/citygen.hpp"

#include "bench/e2e/bench.hpp"
#include "bench/e2e/spans.hpp"

namespace hdtn::bench {

namespace {

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

core::Scenario nusScenario(const RepConfig& config) {
  const bool smoke = config.scale == Scale::kSmoke;
  std::vector<std::pair<std::string, std::string>> keys;
  if (config.workload == "nus-mbt") {
    keys = {{"trace-students", smoke ? "120" : "600"},
            {"trace-courses", smoke ? "24" : "120"},
            {"trace-days", smoke ? "4" : "7"},
            {"protocol", "mbt"},
            {"frequent-days", "1"}};
  } else {
    keys = {{"trace-students", smoke ? "200" : "1000"},
            {"trace-courses", smoke ? "40" : "200"},
            {"trace-days", smoke ? "7" : "14"},
            {"protocol", "mbt-qm"},
            {"download-mode", "coded"},
            {"pieces-per-file", "16"},
            {"files-per-contact", "4"},
            {"loss-rate", "0.2"},
            {"truncation-rate", "0.2"},
            {"churn-fraction", "0.1"},
            {"recovery-retries", "2"},
            {"recovery-repair", "4"},
            {"recovery-failover", "true"},
            {"adversary-fraction", "0.2"},
            {"adversary-attacks", "all"},
            {"defense", "true"}};
  }
  const std::string seed = std::to_string(config.seed);
  keys.insert(keys.end(), {{"trace-family", "nus"},
                           {"trace-seed", seed},
                           {"access", "0.3"},
                           {"files-per-day", "40"},
                           {"ttl-days", "3"},
                           {"seed", seed}});
  core::Scenario scenario;
  for (const auto& [key, value] : keys) {
    const std::string error = scenario.apply(key, value);
    if (!error.empty()) throw std::runtime_error(error);
  }
  return scenario;
}

/// Per-node state summed over every node of an engine.
struct NodeSums {
  std::uint64_t metadataRecords = 0;
  std::uint64_t pieceFiles = 0;
  std::uint64_t peerWantedUris = 0;
  std::uint64_t proxiedQueries = 0;

  void add(const core::Engine& engine) {
    const SimTime now = engine.now();
    for (std::uint32_t id = 0; id < engine.nodeCount(); ++id) {
      const core::Node& node = engine.node(NodeId(id));
      metadataRecords += node.metadata().size();
      pieceFiles += node.pieces().files().size();
      peerWantedUris += node.peerWantedUris(now).size();
      proxiedQueries += node.proxiedQueryTexts(now).size();
    }
  }
};

void reportCommon(const core::EngineResult& result, std::size_t nodes,
                  RepReport& report) {
  report.set("contacts", static_cast<double>(result.totals.contactsProcessed));
  report.set("nodes", static_cast<double>(nodes));
  report.set("file_ratio", result.delivery.fileRatio);
  report.set("metadata_ratio", result.delivery.metadataRatio);
  report.digest = resultDigest(result);
}

/// Totals and node state a traced repetition reports per layer.
void reportLayerCounts(const core::EngineResult& result, const NodeSums& sums,
                       RepReport& report) {
  const core::EngineTotals& t = result.totals;
  report.set("core.discovery.broadcasts",
             static_cast<double>(t.metadataBroadcasts));
  report.set("core.discovery.receptions_per_broadcast",
             ratio(t.metadataReceptions, t.metadataBroadcasts));
  report.set("core.download.broadcasts",
             static_cast<double>(t.pieceBroadcasts));
  report.set("core.download.receptions_per_broadcast",
             ratio(t.pieceReceptions, t.pieceBroadcasts));
  report.set("core.node.metadata_records",
             static_cast<double>(sums.metadataRecords));
  report.set("core.node.piece_files", static_cast<double>(sums.pieceFiles));
  report.set("core.node.peer_wanted_uris",
             static_cast<double>(sums.peerWantedUris));
  report.set("core.node.proxied_queries",
             static_cast<double>(sums.proxiedQueries));
  report.set("core.coding.row_ops", static_cast<double>(t.codedDecodeRowOps));
  report.set("core.coding.innovative_ratio",
             ratio(t.codedInnovativeFrames,
                   t.codedInnovativeFrames + t.codedRedundantFrames));
  report.set("core.coding.generations_decoded",
             static_cast<double>(t.generationsDecoded));
  report.set("core.coding.pollution_detected",
             static_cast<double>(t.pollutionDetected));
  report.set("core.recovery.frames_lost",
             static_cast<double>(t.recoveryFramesLost));
  report.set("core.recovery.retransmits",
             static_cast<double>(t.recoveryRetransmits));
  report.set("core.recovery.redelivery_ratio",
             ratio(t.recoveryRedeliveries, t.recoveryRetransmits));
  report.set("core.recovery.repair_requests",
             static_cast<double>(t.repairRequests));
  report.set("faults.messages_dropped",
             static_cast<double>(t.faultMessagesDropped));
  report.set("faults.contacts_truncated",
             static_cast<double>(t.faultContactsTruncated));
  report.set("faults.adversary_attacks",
             static_cast<double>(t.adversaryAttacks));
  report.set("core.reputation.quarantines",
             static_cast<double>(t.nodesQuarantined));
  report.set("core.reputation.false_quarantines",
             static_cast<double>(t.falseQuarantines));
}

/// Benchmark-owned pass-through that times every call into the wrapped
/// stream and counts the contacts it yields.
class TimedStream final : public trace::ContactStream {
 public:
  explicit TimedStream(trace::ContactStream& inner) : inner_(inner) {}

  std::optional<trace::Contact> next() override {
    const double start = nowSeconds();
    std::optional<trace::Contact> contact = inner_.next();
    seconds_ += nowSeconds() - start;
    if (contact) ++contacts_;
    return contact;
  }
  void reset() override {
    const double start = nowSeconds();
    inner_.reset();
    seconds_ += nowSeconds() - start;
    contacts_ = 0;
  }
  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] std::size_t nodeCount() const override {
    return inner_.nodeCount();
  }
  [[nodiscard]] SimTime endTime() const override { return inner_.endTime(); }
  [[nodiscard]] const std::vector<std::uint32_t>& partitionHint()
      const override {
    return inner_.partitionHint();
  }

  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] std::uint64_t contacts() const { return contacts_; }

 private:
  trace::ContactStream& inner_;
  double seconds_ = 0.0;
  std::uint64_t contacts_ = 0;
};

}  // namespace

RepReport runNusWorkload(const RepConfig& config) {
  RepReport report;
  const core::Scenario scenario = nusScenario(config);
  SpanRecorder spans;
  const std::int64_t repSpan = spans.open("rep", -1);

  std::optional<trace::ContactTrace> trace;
  std::unique_ptr<core::Engine> engine;
  std::vector<double> setups;
  std::vector<double> builds;
  const std::int64_t setupSpan = spans.open("setup", repSpan);
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    engine.reset();
    trace.reset();
    const double start = nowSeconds();
    std::string error;
    trace = scenario.trace.build(&error);
    if (!trace) throw std::runtime_error(error);
    const double built = nowSeconds();
    engine = std::make_unique<core::Engine>(*trace, scenario.params);
    const double end = nowSeconds();
    spans.add("trace.build", start, built, setupSpan);
    spans.add("engine.construct", built, end, setupSpan);
    setups.push_back(end - start);
    builds.push_back(built - start);
  }
  spans.close(setupSpan);
  report.set("setup_s", median(setups));
  report.set("trace.build_s", median(builds));
  report.set("trace.contacts", static_cast<double>(trace->contactCount()));
  report.set("mem.rss_after_setup_mib", currentRssMib());

  const std::int64_t runSpan = spans.open("run", repSpan);
  const double start = nowSeconds();
  core::EngineResult result;
  if (!config.traced) {
    result = engine->run();
  } else {
    StageObserver observer(spans, runSpan);
    engine->setObserver(&observer);
    std::vector<double> contactSteps;
    double publishSeconds = 0.0;
    while (true) {
      const std::uint64_t contactsBefore = observer.contactsEnded();
      const std::uint64_t publishedBefore = observer.filesPublished();
      const double stepStart = nowSeconds();
      const bool more = engine->step();
      const double took = nowSeconds() - stepStart;
      if (!more) break;
      if (observer.contactsEnded() != contactsBefore) {
        contactSteps.push_back(took);
      } else if (observer.filesPublished() != publishedBefore) {
        publishSeconds += took;
        spans.add("publish", stepStart, stepStart + took, runSpan);
      }
    }
    result = engine->finish();
    engine->setObserver(nullptr);
    report.set("core.engine.contact_steps",
               static_cast<double>(contactSteps.size()));
    report.set("core.engine.contact_step_us_p50",
               percentile(contactSteps, 50) * 1e6);
    report.set("core.engine.contact_step_us_p99",
               percentile(contactSteps, 99) * 1e6);
    report.set("core.engine.publish_step_s", publishSeconds);
    report.set("core.contact.pre_plan_s", observer.prePlanSeconds());
    report.set("core.contact.metadata_s", observer.metadataSeconds());
    report.set("core.contact.piece_s", observer.pieceSeconds());
    report.set("obs.events", static_cast<double>(observer.events()));
  }
  report.set("wall_s", nowSeconds() - start);
  spans.close(runSpan);
  reportCommon(result, engine->nodeCount(), report);
  if (config.traced) {
    NodeSums sums;
    sums.add(*engine);
    reportLayerCounts(result, sums, report);
    spans.close(repSpan);
    spans.write(config.exeDir + "/out/trace_" + config.workload + ".json",
                config.workload);
  }
  return report;
}

RepReport runCityWorkload(const RepConfig& config) {
  const bool smoke = config.scale == Scale::kSmoke;
  trace::CityParams city;
  city.nodes = smoke ? 5000 : 50000;
  city.districts = 64;
  city.days = 3;
  city.seed = 20260808 + config.seed;
  core::ShardedParams params;
  // MBT-Q as in bench_scale: query proxying is inert in streaming feed
  // mode, so MBT would measure the same path under another name.
  params.engine.protocol.kind = core::ProtocolKind::kMbtQ;
  params.engine.internetAccessFraction = 0.3;
  params.engine.newFilesPerDay = 20;
  params.engine.fileTtlDays = 2;
  params.engine.seed = config.seed;
  params.shards = 8;
  params.threads = 4;

  RepReport report;
  SpanRecorder spans;
  const std::int64_t repSpan = spans.open("rep", -1);
  std::unique_ptr<trace::CityStream> stream;
  std::unique_ptr<TimedStream> timed;
  std::unique_ptr<core::ShardedEngine> engine;
  std::vector<double> setups;
  std::vector<double> opens;
  const std::int64_t setupSpan = spans.open("setup", repSpan);
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    engine.reset();
    timed.reset();
    stream.reset();
    const double start = nowSeconds();
    stream = std::make_unique<trace::CityStream>(city);
    trace::ContactStream* feed = stream.get();
    if (config.traced) {
      timed = std::make_unique<TimedStream>(*stream);
      feed = timed.get();
    }
    const double opened = nowSeconds();
    engine = std::make_unique<core::ShardedEngine>(*feed, params);
    const double end = nowSeconds();
    spans.add("trace.open", start, opened, setupSpan);
    spans.add("sharded.construct", opened, end, setupSpan);
    setups.push_back(end - start);
    opens.push_back(opened - start);
  }
  spans.close(setupSpan);
  report.set("setup_s", median(setups));
  report.set("mem.rss_after_setup_mib", currentRssMib());

  const std::int64_t runSpan = spans.open("run", repSpan);
  const double start = nowSeconds();
  core::EngineResult result;
  if (!config.traced) {
    result = engine->run();
  } else {
    // Hourly slices: the per-day cost shows how per-contact work grows as
    // node state accumulates over simulated time.
    const double setupStreamSeconds = timed->seconds();
    std::vector<double> slices;
    std::vector<double> daySeconds(static_cast<std::size_t>(city.days), 0.0);
    std::vector<std::uint64_t> dayContacts(daySeconds.size(), 0);
    const int hours = city.days * 24;
    for (int hour = 1; hour <= hours; ++hour) {
      const std::uint64_t contactsBefore = timed->contacts();
      const std::int64_t slice =
          spans.open("slice", runSpan, static_cast<std::uint64_t>(hour));
      const double sliceStart = nowSeconds();
      engine->runUntil(static_cast<SimTime>(hour) * kHour);
      const double took = nowSeconds() - sliceStart;
      spans.close(slice);
      slices.push_back(took);
      const auto day = static_cast<std::size_t>((hour - 1) / 24);
      daySeconds[day] += took;
      dayContacts[day] += timed->contacts() - contactsBefore;
    }
    result = engine->finish();
    report.set("trace.build_s",
               median(opens) + timed->seconds() - setupStreamSeconds);
    report.set("trace.contacts", static_cast<double>(timed->contacts()));
    report.set("core.sharded.components",
               static_cast<double>(engine->componentCount()));
    for (std::size_t day = 0; day < daySeconds.size(); ++day) {
      report.set("core.sharded.day" + std::to_string(day + 1) +
                     "_us_per_contact",
                 daySeconds[day] * 1e6 /
                     static_cast<double>(std::max<std::uint64_t>(
                         1, dayContacts[day])));
    }
    report.set("core.sharded.slice_s_p50", percentile(slices, 50));
    report.set("core.sharded.slice_s_p85", percentile(slices, 85));
  }
  report.set("wall_s", nowSeconds() - start);
  spans.close(runSpan);
  reportCommon(result, engine->nodeCount(), report);
  if (config.traced) {
    NodeSums sums;
    for (std::size_t i = 0; i < engine->componentCount(); ++i) {
      sums.add(engine->component(i));
    }
    reportLayerCounts(result, sums, report);
    spans.close(repSpan);
    spans.write(config.exeDir + "/out/trace_" + config.workload + ".json",
                config.workload);
  }
  return report;
}

}  // namespace hdtn::bench
