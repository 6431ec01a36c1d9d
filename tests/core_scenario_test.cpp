// Scenario: the declarative run configuration. Covers key application
// (file keys == CLI flags, one semantics), the `key = value` parser with
// line-numbered errors, trace building for every family, and runScenario()
// matching a hand-wired engine run.
#include "src/core/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "src/core/checkpoint.hpp"
#include "src/core/download_planner.hpp"
#include "src/faults/adversary.hpp"

namespace hdtn::core {
namespace {

TEST(ScenarioApply, DownloadModeRoundTripsThroughRegistry) {
  // parse -> format must be the identity for every registered mode name:
  // applying "download-mode" and reading the name back via the registry
  // returns the exact string that was applied.
  for (const DownloadModeInfo& info : downloadModeRegistry()) {
    Scenario s;
    EXPECT_EQ(s.apply("download-mode", info.name), "") << info.name;
    EXPECT_EQ(s.params.downloadMode, info.mode) << info.name;
    EXPECT_EQ(s.params.protocol.scheduling, info.scheduling) << info.name;
    EXPECT_STREQ(downloadModeName(s.params.downloadMode,
                                  s.params.protocol.scheduling),
                 info.name)
        << info.name;
  }
  Scenario s;
  EXPECT_NE(s.apply("download-mode", "rateless"), "");
}

TEST(ScenarioApply, CodedKnobsReachEngineParams) {
  Scenario s;
  EXPECT_EQ(s.apply("download-mode", "coded"), "");
  EXPECT_EQ(s.apply("coded-redundancy", "1.25"), "");
  EXPECT_EQ(s.apply("coded-sparsity", "0.4"), "");
  EXPECT_EQ(s.params.downloadMode, DownloadMode::kCoded);
  EXPECT_EQ(s.params.coded.redundancy, 1.25);
  EXPECT_EQ(s.params.coded.sparsity, 0.4);
  EXPECT_NE(s.apply("coded-redundancy", "up"), "");
}

TEST(ScenarioApply, AdversaryKnobsReachEngineParams) {
  Scenario s;
  EXPECT_EQ(s.apply("adversary-fraction", "0.2"), "");
  EXPECT_EQ(s.apply("adversary-attacks", "pollution,ack-spoof"), "");
  EXPECT_EQ(s.apply("defense", ""), "");  // bare switch
  EXPECT_EQ(s.apply("quarantine-threshold", "2.5"), "");
  EXPECT_EQ(s.params.adversary.byzantineFraction, 0.2);
  EXPECT_EQ(s.params.adversary.attacks,
            static_cast<std::uint32_t>(faults::AttackKind::kPollution) |
                static_cast<std::uint32_t>(faults::AttackKind::kAckSpoof));
  EXPECT_TRUE(s.params.reputation.defense);
  EXPECT_EQ(s.params.reputation.quarantineThreshold, 2.5);
  // Every alias the docs promise round-trips.
  EXPECT_EQ(s.apply("adversary-attacks", "all"), "");
  EXPECT_EQ(s.params.adversary.attacks, faults::kAllAttacks);
  EXPECT_EQ(s.apply("adversary-attacks", "none"), "");
  EXPECT_EQ(s.params.adversary.attacks, 0u);
  EXPECT_EQ(s.apply("defense", "false"), "");
  EXPECT_FALSE(s.params.reputation.defense);
}

TEST(ScenarioApply, AdversaryKnobsRejectBadValues) {
  Scenario s;
  EXPECT_NE(s.apply("adversary-fraction", "lots"), "");
  const std::string maskError = s.apply("adversary-attacks", "rateless");
  EXPECT_NE(maskError, "");
  // The rejection names the offending token and the accepted vocabulary.
  EXPECT_NE(maskError.find("rateless"), std::string::npos);
  EXPECT_NE(maskError.find("pollution"), std::string::npos);
  EXPECT_NE(s.apply("defense", "maybe"), "");
  EXPECT_NE(s.apply("quarantine-threshold", "steep"), "");
}

TEST(ScenarioApply, SetsEngineAndFaultAndTraceFields) {
  Scenario s;
  EXPECT_EQ(s.apply("protocol", "mbt-q"), "");
  EXPECT_EQ(s.apply("scheduling", "tft"), "");
  EXPECT_EQ(s.apply("access", "0.5"), "");
  EXPECT_EQ(s.apply("files-per-day", "10"), "");
  EXPECT_EQ(s.apply("frequent-days", "1"), "");
  EXPECT_EQ(s.apply("loss-rate", "0.25"), "");
  EXPECT_EQ(s.apply("churn-fraction", "0.1"), "");
  EXPECT_EQ(s.apply("churn-downtime-hours", "2"), "");
  EXPECT_EQ(s.apply("trace-family", "dieselnet"), "");
  EXPECT_EQ(s.apply("trace-buses", "12"), "");
  EXPECT_EQ(s.params.protocol.kind, ProtocolKind::kMbtQ);
  EXPECT_EQ(s.params.protocol.scheduling, Scheduling::kTitForTat);
  EXPECT_EQ(s.params.internetAccessFraction, 0.5);
  EXPECT_EQ(s.params.newFilesPerDay, 10);
  EXPECT_EQ(s.params.frequentContactPeriod, kDay);
  EXPECT_EQ(s.params.faults.messageLossRate, 0.25);
  EXPECT_EQ(s.params.faults.churnDownFraction, 0.1);
  EXPECT_EQ(s.params.faults.churnMeanDowntime, 2 * kHour);
  EXPECT_EQ(s.trace.family, "dieselnet");
  EXPECT_EQ(s.trace.buses, 12);
}

TEST(ScenarioApply, BareSwitchMeansTrue) {
  Scenario s;
  EXPECT_EQ(s.apply("observed-popularity", ""), "");
  EXPECT_TRUE(s.params.useObservedPopularity);
  EXPECT_EQ(s.apply("observed-popularity", "false"), "");
  EXPECT_FALSE(s.params.useObservedPopularity);
}

TEST(ScenarioApply, RejectsUnknownKeysAndBadValues) {
  Scenario s;
  EXPECT_NE(s.apply("no-such-key", "1"), "");
  EXPECT_NE(s.apply("protocol", "flooding"), "");
  EXPECT_NE(s.apply("access", "lots"), "");
  EXPECT_NE(s.apply("files-per-day", "3.5"), "");
  EXPECT_NE(s.apply("churn-downtime-hours", "-1"), "");
}

TEST(ScenarioApply, EveryKnownKeyIsAccepted) {
  // knownKeys() is what the CLI override loop iterates; a key present
  // there but rejected by apply() would make a valid flag unusable.
  for (const std::string& key : Scenario::knownKeys()) {
    Scenario s;
    const std::string numeric = s.apply(key, "1");
    const std::string text = s.apply(key, "mbt");
    // scheduling, download-mode, and adversary-attacks only take their
    // registry/attack names, which overlap with neither probe value.
    EXPECT_TRUE(numeric.empty() || text.empty() || key == "scheduling" ||
                key == "download-mode" || key == "adversary-attacks")
        << "key '" << key << "' rejects both '1' and 'mbt'";
    if (key == "download-mode") {
      EXPECT_EQ(s.apply(key, "coop"), "");
    }
    if (key == "adversary-attacks") {
      EXPECT_EQ(s.apply(key, "all"), "");
    }
  }
}

TEST(ScenarioParse, ReadsFileFormatWithCommentsAndBlanks) {
  std::istringstream in(
      "# lossy campus run\n"
      "name = lossy-nus   # trailing comment\n"
      "\n"
      "trace-family = nus\n"
      "trace-students = 24\n"
      "protocol     = mbt-qm\n"
      "loss-rate    = 0.15\n");
  std::vector<std::string> errors;
  const auto scenario = Scenario::parse(in, &errors);
  ASSERT_TRUE(scenario.has_value()) << (errors.empty() ? "" : errors.front());
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(scenario->name, "lossy-nus");
  EXPECT_EQ(scenario->trace.family, "nus");
  EXPECT_EQ(scenario->trace.students, 24);
  EXPECT_EQ(scenario->params.protocol.kind, ProtocolKind::kMbtQm);
  EXPECT_EQ(scenario->params.faults.messageLossRate, 0.15);
}

TEST(ScenarioParse, ReportsLineNumberedErrors) {
  std::istringstream in(
      "protocol = mbt\n"
      "this line has no equals\n"
      "losss-rate = 0.1\n"
      "access = high\n");
  std::vector<std::string> errors;
  const auto scenario = Scenario::parse(in, &errors);
  EXPECT_FALSE(scenario.has_value());
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(errors[1].find("line 3"), std::string::npos);
  EXPECT_NE(errors[1].find("losss-rate"), std::string::npos);
  EXPECT_NE(errors[2].find("line 4"), std::string::npos);
}

TEST(ScenarioFromFile, MissingFileIsAnError) {
  std::vector<std::string> errors;
  EXPECT_FALSE(
      Scenario::fromFile("/nonexistent/p.scenario", &errors).has_value());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("cannot read"), std::string::npos);
}

TEST(ScenarioValidate, CatchesTraceParamAndOutputProblems) {
  Scenario s;  // family "file" with no path
  EXPECT_FALSE(s.validate().empty());
  s.trace.family = "nus";
  EXPECT_TRUE(s.validate().empty());
  s.params.newFilesPerDay = 0;
  s.sampleEvery = 0;
  EXPECT_EQ(s.validate().size(), 2u);
}

TEST(TraceSpec, BuildsEveryFamily) {
  for (const char* family : {"nus", "dieselnet", "rwp"}) {
    TraceSpec spec;
    spec.family = family;
    spec.days = 2;
    spec.students = 20;
    spec.courses = 4;
    spec.buses = 8;
    spec.routes = 2;
    spec.nodes = 10;
    spec.hours = 2.0;
    std::string error;
    const auto trace = spec.build(&error);
    ASSERT_TRUE(trace.has_value()) << family << ": " << error;
    EXPECT_GT(trace->nodeCount(), 0u) << family;
  }
}

TEST(TraceSpec, RejectsUnknownFamilyAndMissingPath) {
  TraceSpec spec;
  spec.family = "warp";
  std::string error;
  EXPECT_FALSE(spec.build(&error).has_value());
  EXPECT_NE(error.find("trace-family"), std::string::npos);
  spec = TraceSpec{};  // family "file", empty path
  EXPECT_FALSE(spec.build(&error).has_value());
}

/// The scenario `text` describes; fails the test unless it parses and
/// validates.
Scenario scenarioFrom(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> errors;
  std::optional<Scenario> s = Scenario::parse(in, &errors);
  EXPECT_TRUE(s.has_value()) << (errors.empty() ? "" : errors.front());
  if (!s) return Scenario{};
  EXPECT_EQ(s->validate(), std::vector<std::string>{});
  return *s;
}

TEST(RunScenario, MatchesHandWiredEngineRun) {
  const Scenario s = scenarioFrom(
      "name = equivalence\n"
      "trace-family = nus\n"
      "trace-students = 24\n"
      "trace-courses = 6\n"
      "trace-days = 3\n"
      "protocol = mbt-qm\n"
      "frequent-days = 1\n"
      "loss-rate = 0.2\n");
  std::string error;
  const auto trace = s.trace.build(&error);
  ASSERT_TRUE(trace.has_value()) << error;
  const auto outcome = runScenario(s, *trace, &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  const EngineResult direct = runSimulation(*trace, s.params);
  EXPECT_EQ(outcome->result.delivery.filesDelivered,
            direct.delivery.filesDelivered);
  EXPECT_EQ(outcome->result.totals.faultMessagesDropped,
            direct.totals.faultMessagesDropped);
}

TEST(RunScenario, ConvenienceOverloadBuildsTheTrace) {
  const Scenario s = scenarioFrom(
      "name = one-call\n"
      "trace-family = nus\n"
      "trace-students = 20\n"
      "trace-courses = 4\n"
      "trace-days = 2\n"
      "frequent-days = 1\n");
  std::string error;
  const auto outcome = runScenario(s, &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_GT(outcome->result.totals.contactsProcessed, 0u);
}

TEST(RunScenario, InvalidScenarioFailsWithMessage) {
  Scenario s;
  s.trace.family = "nus";
  s.params.fileTtlDays = 0;
  std::string error;
  EXPECT_FALSE(runScenario(s, &error).has_value());
  EXPECT_NE(error.find("fileTtlDays"), std::string::npos);
}

// --- checkpointed/resumed runs ----------------------------------------------

std::string readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A small checkpointing scenario whose sample and checkpoint cadences are
/// deliberately misaligned (6 h vs 8 h), so boundaries of all three kinds
/// (sample-only, checkpoint-only, shared at 24 h) occur.
Scenario resumableScenario(const std::string& dir, bool resume) {
  Scenario s = scenarioFrom(
      "name = resumable\n"
      "trace-family = nus\n"
      "trace-students = 30\n"
      "trace-courses = 6\n"
      "trace-days = 3\n"
      "protocol = mbt-qm\n"
      "files-per-day = 10\n"
      "frequent-days = 1\n"
      "loss-rate = 0.1\n"
      "events-out = " + dir + "/events.jsonl\n"
      "timeseries-out = " + dir + "/series.csv\n"
      "sample-every = 21600\n");
  s.checkpointOut = dir + "/run.ckpt";
  s.checkpointEvery = 8 * kHour;
  s.resume = resume;
  return s;
}

TEST(RunScenarioCheckpoint, CheckpointedRunMatchesPlainRun) {
  const std::string dir = testing::TempDir() + "/sc_plain";
  std::filesystem::remove_all(dir);  // leftovers from a prior ctest run
  std::filesystem::create_directories(dir);
  std::string error;
  // Reference: same scenario with checkpointing off.
  Scenario plain = resumableScenario(dir, false);
  plain.checkpointOut.clear();
  plain.eventsOut = dir + "/ref_events.jsonl";
  plain.timeseriesOut = dir + "/ref_series.csv";
  const auto ref = runScenario(plain, &error);
  ASSERT_TRUE(ref.has_value()) << error;

  const Scenario ckpt = resumableScenario(dir, false);
  const auto outcome = runScenario(ckpt, &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_FALSE(outcome->resumed);
  EXPECT_EQ(outcome->eventsWritten, ref->eventsWritten);
  EXPECT_EQ(readAll(ckpt.eventsOut), readAll(plain.eventsOut));
  EXPECT_EQ(readAll(ckpt.timeseriesOut), readAll(plain.timeseriesOut));
  // The last periodic checkpoint is left behind and is a valid file.
  const CheckpointInfo info = readCheckpointInfo(ckpt.checkpointOut);
  EXPECT_EQ(info.version, kCheckpointVersion);
  EXPECT_GT(info.executedEvents, 0u);
}

TEST(RunScenarioCheckpoint, ResumeReproducesOutputsByteIdentically) {
  const std::string dir = testing::TempDir() + "/sc_resume";
  std::filesystem::remove_all(dir);  // leftovers from a prior ctest run
  std::filesystem::create_directories(dir);
  std::string error;
  const Scenario first = resumableScenario(dir, false);
  const auto full = runScenario(first, &error);
  ASSERT_TRUE(full.has_value()) << error;
  const std::string wantEvents = readAll(first.eventsOut);
  const std::string wantSeries = readAll(first.timeseriesOut);

  // Simulate a crash after the last checkpoint: the outputs carry a garbage
  // tail the checkpoint knows nothing about. Resume must truncate it back
  // to the recorded offsets and finish byte-identically.
  {
    std::ofstream events(first.eventsOut, std::ios::app);
    events << "{\"t\":GARBAGE half-written line";
    std::ofstream series(first.timeseriesOut, std::ios::app);
    series << "999999,partial row";
  }
  const Scenario again = resumableScenario(dir, true);
  const auto resumed = runScenario(again, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->eventsWritten, full->eventsWritten);
  EXPECT_EQ(readAll(again.eventsOut), wantEvents);
  EXPECT_EQ(readAll(again.timeseriesOut), wantSeries);
  EXPECT_EQ(resumed->result.delivery.filesDelivered,
            full->result.delivery.filesDelivered);
  EXPECT_EQ(resumed->result.totals.pieceBroadcasts,
            full->result.totals.pieceBroadcasts);
}

TEST(RunScenarioCheckpoint, ResumeWithoutCheckpointColdStarts) {
  const std::string dir = testing::TempDir() + "/sc_cold";
  std::filesystem::remove_all(dir);  // leftovers from a prior ctest run
  std::filesystem::create_directories(dir);
  std::string error;
  const Scenario s = resumableScenario(dir, true);  // nothing to resume yet
  const auto outcome = runScenario(s, &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_FALSE(outcome->resumed);
  EXPECT_GT(outcome->eventsWritten, 0u);
}

TEST(RunScenarioCheckpoint, ResumeWithMissingOutputFailsLoudly) {
  const std::string dir = testing::TempDir() + "/sc_missing";
  std::filesystem::remove_all(dir);  // leftovers from a prior ctest run
  std::filesystem::create_directories(dir);
  std::string error;
  const Scenario first = resumableScenario(dir, false);
  ASSERT_TRUE(runScenario(first, &error).has_value()) << error;
  std::filesystem::remove(first.eventsOut);
  const Scenario again = resumableScenario(dir, true);
  EXPECT_FALSE(runScenario(again, &error).has_value());
  EXPECT_NE(error.find("missing"), std::string::npos) << error;
}

TEST(RunScenarioCheckpoint, ValidationCatchesBadCheckpointConfig) {
  Scenario s;
  s.trace.family = "nus";
  s.resume = true;  // without checkpoint-out
  std::string error;
  EXPECT_FALSE(runScenario(s, &error).has_value());
  EXPECT_NE(error.find("resume requires checkpoint-out"), std::string::npos);

  Scenario t;
  t.trace.family = "nus";
  t.checkpointOut = "x.ckpt";
  t.checkpointEvery = 0;
  EXPECT_FALSE(runScenario(t, &error).has_value());
  EXPECT_NE(error.find("checkpoint-every"), std::string::npos);
}

}  // namespace
}  // namespace hdtn::core
