// Pins the engine's complete output on every link-model path: named-piece
// broadcasts, pairwise transfers and coded frames, each under a fault mix
// with recovery on, with and without a Byzantine adversary, with and without
// the defense. One more broadcast run re-estimates popularity every day, so
// holders of a file carry different snapshots of its record. Two more
// broadcast runs schedule with tit-for-tat and with popularity-only
// rarest-first instead of the cooperative coordinator. A run's digest
// is the SHA-1 of its JSONL event stream, every EngineTotals word and the
// four delivery reports, so any change to a draw, a counter or an event in
// any delivery path changes it.
//
// The same runs check the link-model identities between the event stream
// and the totals (docs/OBSERVABILITY.md), and pin the exact bytes of a
// checkpoint saved halfway through each run.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "src/core/engine.hpp"
#include "src/faults/adversary.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/events.hpp"
#include "src/trace/nus.hpp"
#include "src/util/sha1.hpp"

namespace hdtn::core {
namespace {

// Writes the JSONL stream and counts events by (type, extra).
class PinObserver final : public obs::EngineObserver {
 public:
  PinObserver() : sink_(jsonl_) {}

  void onEvent(const obs::SimEvent& event) override {
    sink_.onEvent(event);
    ++counts_[{event.type, event.extra}];
    ++byType_[event.type];
  }

  [[nodiscard]] std::string jsonl() const { return jsonl_.str(); }
  [[nodiscard]] std::uint64_t count(obs::SimEventType type) const {
    const auto it = byType_.find(type);
    return it == byType_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t count(obs::SimEventType type,
                                    std::uint32_t extra) const {
    const auto it = counts_.find({type, extra});
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  std::ostringstream jsonl_;
  obs::JsonlEventSink sink_;
  std::map<std::pair<obs::SimEventType, std::uint32_t>, std::uint64_t>
      counts_;
  std::map<obs::SimEventType, std::uint64_t> byType_;
};

enum class Mix { kFaults, kDefended, kUndefended };

struct PinCase {
  const char* name;
  DownloadMode mode;
  ProtocolKind kind;
  Mix mix;
  const char* digest;  // captured before the link-model refactor
  // Checkpoint saved at half the trace's end time: file size and SHA-1,
  // captured before the one-buffer checkpoint envelope.
  std::size_t checkpointBytes;
  const char* checkpointDigest;
  // Popularity re-estimated from access-node requests every day, so
  // holders of one file carry different popularity snapshots.
  bool observedPopularity = false;
  // Pieces per file, the generation size k of the coded cases.
  std::uint32_t piecesPerFile = 4;
  // Discovery and broadcast download scheduling, and the push order of the
  // broadcast download planners.
  Scheduling scheduling = Scheduling::kCooperative;
  PushOrder pushOrder = PushOrder::kPopularity;
  // Bounded node stores (0 = unbounded) and forgers whose records honest
  // nodes verify and reject.
  std::size_t pieceCapacity = 0;
  std::size_t metadataCapacity = 0;
  double forgerFraction = 0.0;
};

EngineParams pinParams(const PinCase& c) {
  EngineParams p;
  p.protocol.kind = c.kind;
  p.downloadMode = c.mode;
  p.internetAccessFraction = 0.3;
  p.newFilesPerDay = 12;
  p.fileTtlDays = 2;
  p.piecesPerFile = c.piecesPerFile;
  p.frequentContactPeriod = kDay;
  p.seed = 11;
  p.useObservedPopularity = c.observedPopularity;
  p.protocol.scheduling = c.scheduling;
  p.pushOrder = c.pushOrder;
  p.nodePieceCapacity = c.pieceCapacity;
  p.nodeMetadataCapacity = c.metadataCapacity;
  p.forgerFraction = c.forgerFraction;
  p.verifyMetadata = c.forgerFraction > 0.0;
  p.faults.messageLossRate = 0.25;
  p.faults.contactTruncationRate = 0.2;
  p.faults.pieceCorruptionRate = 0.15;
  p.faults.churnDownFraction = 0.15;
  p.faults.churnMeanDowntime = 3 * kHour;
  p.recovery.maxRetries = 2;
  p.recovery.retransmitBudget = 16;
  p.recovery.repairPerContact = 4;
  p.recovery.coordinatorFailover = true;
  if (c.mix != Mix::kFaults) {
    p.adversary.byzantineFraction = 0.2;
    p.adversary.attacks = faults::kAllAttacks;
    p.reputation.defense = c.mix == Mix::kDefended;
  }
  return p;
}

std::string runDigest(const EngineResult& result, const std::string& jsonl) {
  std::string text = jsonl;
  char line[160];
  for (const DeliveryReport* report :
       {&result.delivery, &result.accessDelivery, &result.contributorDelivery,
        &result.freeRiderDelivery}) {
    std::snprintf(line, sizeof(line), "%zu %zu %zu %a %a %a %a\n",
                  report->queries, report->metadataDelivered,
                  report->filesDelivered, report->metadataRatio,
                  report->fileRatio, report->meanMetadataDelaySeconds,
                  report->meanFileDelaySeconds);
    text += line;
  }
  static_assert(std::is_trivially_copyable_v<EngineTotals> &&
                sizeof(EngineTotals) % sizeof(std::uint64_t) == 0);
  std::array<std::uint64_t, sizeof(EngineTotals) / sizeof(std::uint64_t)>
      words{};
  std::memcpy(words.data(), &result.totals, sizeof(result.totals));
  for (const std::uint64_t word : words) text += std::to_string(word) + " ";
  return Sha1::hash(text).hex();
}

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

trace::ContactTrace pinTrace() {
  trace::NusParams tp;
  tp.students = 60;
  tp.courses = 12;
  tp.coursesPerStudent = 2;
  tp.days = 6;
  tp.attendanceRate = 0.9;
  tp.seed = 5;
  return trace::generateNus(tp);
}

class EnginePin : public testing::TestWithParam<PinCase> {};

TEST_P(EnginePin, OutputMatchesPinnedDigestAndLinkIdentities) {
  const PinCase& c = GetParam();
  const trace::ContactTrace trace = pinTrace();

  Engine engine(trace, pinParams(c));
  PinObserver observer;
  engine.setObserver(&observer);
  const EngineResult result = engine.run();
  const EngineTotals& t = result.totals;

  EXPECT_EQ(runDigest(result, observer.jsonl()), c.digest) << c.name;

  using obs::SimEventType;
  const auto fault = [](faults::FaultKind kind) {
    return static_cast<std::uint32_t>(kind);
  };
  const auto attack = [](faults::AttackKind kind) {
    return static_cast<std::uint32_t>(kind);
  };
  EXPECT_EQ(observer.count(SimEventType::kFaultInjected,
                           fault(faults::FaultKind::kMessageLoss)),
            t.faultMessagesDropped);
  EXPECT_EQ(observer.count(SimEventType::kFaultInjected,
                           fault(faults::FaultKind::kPieceCorruption)),
            t.faultPiecesRejectedCorrupt);
  EXPECT_EQ(observer.count(SimEventType::kDecodeFailed),
            t.codedDecodeFailures);
  EXPECT_EQ(observer.count(SimEventType::kPieceRejectedCorrupt),
            t.faultPiecesRejectedCorrupt - t.codedDecodeFailures +
                t.piecesLied);
  EXPECT_EQ(observer.count(SimEventType::kFaultInjected,
                           fault(faults::FaultKind::kContactTruncation)),
            t.faultContactsTruncated);
  EXPECT_EQ(observer.count(SimEventType::kAttackInjected,
                           attack(faults::AttackKind::kPieceLie)),
            t.piecesLied);
  EXPECT_EQ(observer.count(SimEventType::kAttackInjected,
                           attack(faults::AttackKind::kPollution)),
            t.pollutionInjected);

  // The matrix must actually reach the paths it pins.
  EXPECT_GT(t.faultMessagesDropped, 0u);
  EXPECT_GT(t.faultPiecesRejectedCorrupt, 0u);
  EXPECT_GT(t.recoveryRetransmits, 0u);
  EXPECT_GT(t.recoveryRedeliveries, 0u);
  EXPECT_GT(t.repairRequests, 0u);
  if (c.mode == DownloadMode::kCoded) {
    EXPECT_GT(t.codedDecodeFailures, 0u);
    if (c.mix != Mix::kFaults) {
      EXPECT_GT(t.pollutionInjected, 0u);
    }
  } else if (c.mix != Mix::kFaults) {
    EXPECT_GT(t.piecesLied, 0u);
  }
  if (c.metadataCapacity > 0) {
    EXPECT_GT(t.metadataEvictions, 0u);
  }
  if (c.forgerFraction > 0.0) {
    EXPECT_GT(t.forgeriesRejected, 0u);
  }
}

TEST_P(EnginePin, CheckpointBytesMatchPin) {
  const PinCase& c = GetParam();
  const trace::ContactTrace trace = pinTrace();
  Engine engine(trace, pinParams(c));
  engine.runUntil(trace.endTime() / 2);
  const std::string path =
      testing::TempDir() + "/engine_pin_" + c.name + ".ckpt";
  engine.saveCheckpoint(path, "pin");
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), c.checkpointBytes) << c.name;
  EXPECT_EQ(Sha1::hash(bytes).hex(), c.checkpointDigest) << c.name;
}

const PinCase kPinCases[] = {
    {"BroadcastMbtFaults", DownloadMode::kBroadcast, ProtocolKind::kMbt,
     Mix::kFaults, "b030b14420f0cfb50954f4330a747e1e17ab6ff3",
     300686, "7c5f4cf63f06bb6b6b41fc6f416997dec4f63fec"},
    {"BroadcastMbtDefended", DownloadMode::kBroadcast, ProtocolKind::kMbt,
     Mix::kDefended, "1ea4339a11eb3fd0caf559df8f3130afa3b41c7c",
     279548, "004e6a1e059791f699cfb4784a6b5495be5865c2"},
    {"BroadcastMbtUndefended", DownloadMode::kBroadcast, ProtocolKind::kMbt,
     Mix::kUndefended, "7b263ebc0c7b10950f35c29a3f6d102a54830f87",
     280182, "8749b3488b0267b27e4042db1001aa7942744d8f"},
    {"PairwiseMbtFaults", DownloadMode::kPairwise, ProtocolKind::kMbt,
     Mix::kFaults, "7236bab7e0040354cfd84ba0d61c5fbeb87944bf",
     296191, "89789f16dbc3c551f35a5f625733fa4aa1e5894e"},
    {"PairwiseMbtDefended", DownloadMode::kPairwise, ProtocolKind::kMbt,
     Mix::kDefended, "7a8275b0d7bc9acda1c89587869d0758d30cdedc",
     277054, "d508a9e88eddb6fb448253788a346382073b7a71"},
    {"PairwiseMbtUndefended", DownloadMode::kPairwise, ProtocolKind::kMbt,
     Mix::kUndefended, "83934ee6838d4a393a0d6f406a3827a22629af60",
     276752, "84817d44798330f1e2c2775cdf39d621a18154f6"},
    {"CodedMbtQmFaults", DownloadMode::kCoded, ProtocolKind::kMbtQm,
     Mix::kFaults, "7ee78803fb71b1eaef4e77b00e9d9bc630f4ece3",
     90154, "661d0dba695a7e2c301de2b614178f6b2fe91031"},
    {"CodedMbtQmDefended", DownloadMode::kCoded, ProtocolKind::kMbtQm,
     Mix::kDefended, "b316f6e4c676672b74ecf20050a5360861636901",
     103802, "d81fe47b03e6f4ac45eb69f5cb59b6375aba48e8"},
    {"CodedMbtQmUndefended", DownloadMode::kCoded, ProtocolKind::kMbtQm,
     Mix::kUndefended, "be889bd7d1bb0d59d1e3ae69afff49533ed3b720",
     103753, "c5f91992c0f71dda22899e39ea956f982baf9aa8"},
    // Both pins of this case were captured before metadata records were
    // shared between holders.
    {"BroadcastMbtObserved", DownloadMode::kBroadcast, ProtocolKind::kMbt,
     Mix::kFaults, "fbb4484fbad06a1a83b4b57fa730a2487cea0aba",
     322643, "b867d04dd0e9d3a642d117f41feb5311ebc06b68", true},
    // k = 16 reaches a whole 16-byte step of the vector row kernel; every
    // other coded case runs at k = 4. Both pins were captured before the
    // decoder rows were flattened.
    {"CodedMbtQmDefendedK16", DownloadMode::kCoded, ProtocolKind::kMbtQm,
     Mix::kDefended, "77951b98e49fea357d28ffb6e3cae14d476a5e52",
     169576, "67b789495dc67dc7823126a3a14675821efb52d2", false, 16},
    // The tit-for-tat and popularity-only (rarest-first) broadcast planners;
    // every case above plans cooperatively. Both pins were captured before
    // the download candidates were flattened.
    {"BroadcastMbtTitForTatFaults", DownloadMode::kBroadcast,
     ProtocolKind::kMbt, Mix::kFaults,
     "a4845e6e0cd62b9d8ae51929bd60b65616ecd7a5", 268585,
     "41d7c7747288aaa0ce0ae3b7e4108df9fad08a8e", false, 4,
     Scheduling::kTitForTat},
    {"BroadcastMbtPopularityRarestFaults", DownloadMode::kBroadcast,
     ProtocolKind::kMbt, Mix::kFaults,
     "fefa1644f053d6e7e07a00975ccb6014c8487143", 268088,
     "edf7d432f8b49842d00adb287240041bf03f2b9d", false, 4,
     Scheduling::kPopularityOnly, PushOrder::kRarestFirst},
    // MBT-Q: peer wants ride on hellos, but no query is proxied. Both pins
    // were captured before peer wants were kept as file ids.
    {"BroadcastMbtQFaults", DownloadMode::kBroadcast, ProtocolKind::kMbtQ,
     Mix::kFaults, "ed4dd22c27032a8c1db8a9cc46340e29b6ca0b94", 267820,
     "63a64b5c67518f78c7391652cd6aed5f7ecb59ed"},
    // Bounded piece and metadata stores, forgers whose records honest nodes
    // verify and reject, and observed popularity. Both pins were captured
    // before the access sync visited each file once per publish epoch.
    {"BroadcastMbtBoundedForgers", DownloadMode::kBroadcast,
     ProtocolKind::kMbt, Mix::kFaults,
     "581d37e063201525478a5b57f72e38b4d1d152a2", 250281,
     "123e8b04fbbea24fbfc433447aabae7b2c6c8fa0", true, 4,
     Scheduling::kCooperative, PushOrder::kPopularity, 24, 10, 0.1},
};

INSTANTIATE_TEST_SUITE_P(Matrix, EnginePin, testing::ValuesIn(kPinCases),
                         [](const testing::TestParamInfo<PinCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hdtn::core
