// The parameter tables (src/core/params.cpp): what every walker of them must
// keep. Each golden below was captured before the tables existed, from the
// hand-written parser, validators and fingerprint they replaced:
//   - a sizeof tripwire per params struct, so a field added without a row
//     fails here first;
//   - the configuration fingerprint of one EngineParams whose 38 fields all
//     hold distinct non-default values (a swapped or dropped row changes it).
//     Fields that became constants hash their constant (Fixed rows), so this
//     golden is the struct's fingerprint from the build that still had them,
//     with those fields at their defaults;
//   - every parse and validation message, from bad values for every key and
//     every ranged field (tests/golden/param_messages.txt);
//   - the key help hdtn_sim prints and the key list in docs/FAULTS.md each
//     name every key, and every shipped scenario file parses and validates.
//
// Regenerate the message golden after an INTENTIONAL wording change with:
//   HDTN_UPDATE_GOLDEN=1 ./build/tests/hdtn_tests
//       --gtest_filter='ParamMessages.*'   (one command line)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/scenario.hpp"
#include "src/trace/nus.hpp"

namespace hdtn::core {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ParamTable, SizeTripwire) {
  // A field added to one of these structs needs a row in its table
  // (src/core/params.cpp) before this size is updated.
  EXPECT_EQ(sizeof(ProtocolConfig), 8u);
  EXPECT_EQ(sizeof(faults::FaultParams), 56u);
  EXPECT_EQ(sizeof(RecoveryParams), 32u);
  EXPECT_EQ(sizeof(CodedParams), 16u);
  EXPECT_EQ(sizeof(faults::AdversaryParams), 16u);
  EXPECT_EQ(sizeof(ReputationParams), 16u);
  EXPECT_EQ(sizeof(EngineParams), 272u);
  EXPECT_EQ(sizeof(TraceSpec), 136u);
  EXPECT_EQ(sizeof(Scenario), 560u);
}

/// One EngineParams in which every field holds a valid value that differs
/// from its default and, where the type allows it, from every other field.
EngineParams everyFieldSet() {
  EngineParams p;
  p.protocol.kind = ProtocolKind::kMbtQ;
  p.protocol.scheduling = Scheduling::kTitForTat;
  p.downloadMode = DownloadMode::kCoded;
  p.internetAccessFraction = 0.11;
  p.newFilesPerDay = 7;
  p.fileTtlDays = 2;
  p.metadataPerContact = 9;
  p.filesPerContact = 4;
  p.pushOrder = PushOrder::kRarestFirst;
  p.piecesPerFile = 3;
  p.frequentContactPeriod = 2 * kDay + 17;
  p.freeRiderFraction = 0.12;
  p.accessFetchesPeerRequests = false;
  p.nodePieceCapacity = 1001;
  p.nodeMetadataCapacity = 77;
  p.forgerFraction = 0.13;
  p.verifyMetadata = true;
  p.useObservedPopularity = true;
  p.explicitAccessNodes = {NodeId(1), NodeId(4)};
  p.faults.messageLossRate = 0.15;
  p.faults.contactTruncationRate = 0.16;
  p.faults.truncationKeepMin = 0.17;
  p.faults.truncationKeepMax = 0.71;
  p.faults.pieceCorruptionRate = 0.18;
  p.faults.churnDownFraction = 0.19;
  p.faults.churnMeanDowntime = 4321;
  p.recovery.maxRetries = 6;
  p.recovery.retransmitBudget = 11;
  p.recovery.repairPerContact = 8;
  p.recovery.repairQueueLimit = 99;
  p.recovery.coordinatorFailover = true;
  p.coded.redundancy = 0.21;
  p.coded.sparsity = 0.22;
  p.adversary.byzantineFraction = 0.23;
  p.adversary.attacks = 0x5;
  p.reputation.defense = true;
  p.reputation.quarantineThreshold = 2.4;
  p.seed = 31337;
  return p;
}

trace::ContactTrace smallTrace() {
  trace::NusParams tp;
  tp.students = 10;
  tp.courses = 3;
  tp.coursesPerStudent = 1;
  tp.days = 1;
  tp.seed = 5;
  return trace::generateNus(tp);
}

std::string fingerprintHex(const EngineParams& params) {
  const trace::ContactTrace trace = smallTrace();
  const Engine engine(trace, params);
  return engine.configFingerprint().hex();
}

TEST(ParamFingerprint, EveryFieldSetMatchesGolden) {
  EXPECT_EQ(fingerprintHex(everyFieldSet()),
            "6241937f0bb2ca655b4586a1c5ddf0dd7af9df34");
}

TEST(ParamFingerprint, DefaultsMatchGolden) {
  EngineParams params;
  params.frequentContactPeriod = kDay;
  EXPECT_EQ(fingerprintHex(params), "81732b3e8d391c3aa58afb6514d7dccac31c41b4");
}

// --- messages ---------------------------------------------------------------

/// What one probe produced: the apply() error, or else every message of
/// Scenario::validate() on the result ("ok" when there is none).
std::string describe(const Scenario& scenario, const std::string& applyError) {
  if (!applyError.empty()) return "apply: " + applyError;
  const std::vector<std::string> errors = scenario.validate();
  if (errors.empty()) return "ok";
  std::string out = "validate:";
  for (const std::string& error : errors) out += " [" + error + "]";
  return out;
}

/// A scenario that validates: the default one on a generated trace.
Scenario validScenario() {
  Scenario s;
  s.trace.family = "nus";
  return s;
}

std::string messageGolden() {
  std::ostringstream out;
  std::vector<std::string> keys = Scenario::knownKeys();
  std::sort(keys.begin(), keys.end());
  out << "# " << keys.size() << " keys\n";
  // Bad values for every key: text, empty, negative, zero, fractional, NaN,
  // infinity, 2^32 + 1 (past a 32-bit field), the least day count whose
  // seconds overflow an int64, and an hour count whose seconds do.
  const char* const probes[] = {"x",   "",    "-1",  "0",
                                "1.5", "nan", "inf", "4294967297",
                                "106751991167301", "1e300"};
  for (const std::string& key : keys) {
    for (const char* probe : probes) {
      Scenario s = validScenario();
      const std::string error = s.apply(key, probe);
      out << key << " = '" << probe << "' -> " << describe(s, error) << "\n";
    }
  }
  // The adversary attack list names the offending token.
  {
    Scenario s = validScenario();
    const std::string error = s.apply("adversary-attacks", "pollution,warp");
    out << "adversary-attacks = 'pollution,warp' -> " << describe(s, error)
        << "\n";
  }
  // Each trace family's own size rules.
  for (const char* family : {"nus", "dieselnet", "rwp"}) {
    Scenario s = validScenario();
    s.trace.family = family;
    s.trace.students = s.trace.courses = 0;
    s.trace.buses = s.trace.routes = 0;
    s.trace.nodes = 0;
    s.trace.hours = 0.0;
    out << "trace family " << family << " sized 0 -> " << describe(s, "")
        << "\n";
  }
  // The rwp contact grid's cell index must fit an int.
  {
    Scenario s = validScenario();
    s.trace.family = "rwp";
    s.trace.fieldSize = 1e300;
    out << "trace family rwp with trace-field 1e300 -> " << describe(s, "")
        << "\n";
  }
  // Fields without a key, one bad value each, and the cross-field rules.
  struct FieldProbe {
    const char* what;
    void (*set)(EngineParams&);
  };
  const FieldProbe fieldProbes[] = {
      {"forgerFraction = 1.5", [](EngineParams& p) { p.forgerFraction = 1.5; }},
      {"forgerFraction = nan",
       [](EngineParams& p) { p.forgerFraction = std::nan(""); }},
      {"freeRiderFraction + forgerFraction = 0.6 + 0.6",
       [](EngineParams& p) {
         p.freeRiderFraction = 0.6;
         p.forgerFraction = 0.6;
       }},
      {"freeRiderFraction + forgerFraction = 1.5 + 0.9",
       [](EngineParams& p) {
         p.freeRiderFraction = 1.5;
         p.forgerFraction = 0.9;
       }},
      {"faults.truncationKeepMin > truncationKeepMax",
       [](EngineParams& p) {
         p.faults.truncationKeepMin = 0.9;
         p.faults.truncationKeepMax = 0.1;
       }},
      {"faults.truncationKeepMax = 1.5",
       [](EngineParams& p) { p.faults.truncationKeepMax = 1.5; }},
      {"faults.churnMeanDowntime = 0 with churn",
       [](EngineParams& p) {
         p.faults.churnDownFraction = 0.1;
         p.faults.churnMeanDowntime = 0;
       }},
      {"faults.churnMeanDowntime = 0 without churn",
       [](EngineParams& p) { p.faults.churnMeanDowntime = 0; }},
      {"recovery.retransmitBudget = 0 with retries",
       [](EngineParams& p) {
         p.recovery.maxRetries = 2;
         p.recovery.retransmitBudget = 0;
       }},
      {"recovery.repairQueueLimit = 0",
       [](EngineParams& p) { p.recovery.repairQueueLimit = 0; }},
      {"adversary.attacks = 1 << 9",
       [](EngineParams& p) { p.adversary.attacks = 1u << 9; }},
  };
  for (const FieldProbe& probe : fieldProbes) {
    Scenario s = validScenario();
    probe.set(s.params);
    out << probe.what << " -> " << describe(s, "") << "\n";
  }
  // File-level parse errors.
  std::istringstream text(
      "protocol = mbt\n"
      "this line has no equals\n"
      " = 3\n"
      "losss-rate = 0.1\n"
      "access = high\n");
  std::vector<std::string> errors;
  (void)Scenario::parse(text, &errors);
  for (const std::string& error : errors) out << "parse: " << error << "\n";
  errors.clear();
  (void)Scenario::fromFile("/nonexistent/p.scenario", &errors);
  for (const std::string& error : errors) out << "file: " << error << "\n";
  return out.str();
}

TEST(ParamMessages, EveryMessageMatchesGolden) {
  const std::string actual = messageGolden();
  const std::string path =
      std::string(HDTN_GOLDEN_DIR) + "/param_messages.txt";
  if (std::getenv("HDTN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  ASSERT_TRUE(std::filesystem::exists(path))
      << "missing golden " << path
      << " (run with HDTN_UPDATE_GOLDEN=1 to create)";
  EXPECT_EQ(actual, readFile(path)) << "messages drifted from " << path;
}

// --- keys in the help, the docs and the shipped scenarios ---------------------

TEST(ParamKeys, SimHelpNamesEveryKey) {
  const std::string command = std::string(HDTN_SIM_BINARY) + " --help 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string help;
  char buf[4096];
  while (const std::size_t n = std::fread(buf, 1, sizeof(buf), pipe)) {
    help.append(buf, n);
  }
  pclose(pipe);
  EXPECT_EQ(Scenario::knownKeys().size(), 53u);
  for (const std::string& key : Scenario::knownKeys()) {
    EXPECT_TRUE(help.find("--" + key + "=") != std::string::npos ||
                help.find("--" + key + " ") != std::string::npos)
        << "hdtn_sim --help does not name key '" << key << "'";
  }
}

TEST(ParamKeys, KeysSettingOneFieldKeepTheirFlagOrder) {
  // hdtn_sim applies flags in knownKeys() order, so where two keys set one
  // field the later one wins: a trace-family flag overrides a trace path,
  // and a download-mode flag overrides the scheduling it implies.
  const std::vector<std::string>& keys = Scenario::knownKeys();
  const auto at = [&keys](const char* key) {
    return std::find(keys.begin(), keys.end(), key) - keys.begin();
  };
  EXPECT_LT(at("trace"), at("trace-family"));
  EXPECT_LT(at("scheduling"), at("download-mode"));
}

TEST(ParamKeys, FaultsDocListsEveryKey) {
  const std::string doc = readFile(std::string(HDTN_SOURCE_DIR) +
                                   "/docs/FAULTS.md");
  ASSERT_FALSE(doc.empty());
  for (const std::string& key : Scenario::knownKeys()) {
    EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
        << "docs/FAULTS.md does not list key '" << key << "'";
  }
}

TEST(ParamKeys, EveryShippedScenarioParsesAndValidates) {
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(HDTN_SOURCE_DIR) + "/examples")) {
    if (entry.path().extension() != ".scenario") continue;
    ++files;
    std::vector<std::string> errors;
    const auto scenario = Scenario::fromFile(entry.path().string(), &errors);
    ASSERT_TRUE(scenario.has_value())
        << entry.path() << ": " << (errors.empty() ? "" : errors.front());
    EXPECT_EQ(scenario->validate(), std::vector<std::string>{})
        << entry.path();
  }
  EXPECT_GE(files, 2);
}

}  // namespace
}  // namespace hdtn::core
