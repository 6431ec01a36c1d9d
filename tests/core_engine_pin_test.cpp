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
// checkpoint saved halfway through each run. EngineTotalsParity maps every
// EngineTotals counter to the event counts it equals, or names why no event
// tells it.
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
#include <vector>

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
  /// The sum of `extra` over every event of `type`.
  [[nodiscard]] std::uint64_t sumExtra(obs::SimEventType type) const {
    std::uint64_t sum = 0;
    for (const auto& [key, n] : counts_) {
      if (key.first == type) sum += key.second * n;
    }
    return sum;
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
  // captured when the format became v6 (value references).
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
     89989, "21d8a1a58b5323841f2710aa1b7016e6362d662b"},
    {"BroadcastMbtDefended", DownloadMode::kBroadcast, ProtocolKind::kMbt,
     Mix::kDefended, "1ea4339a11eb3fd0caf559df8f3130afa3b41c7c",
     87753, "190bff6e6a3bbb42d5dbc9261c7b402b4be198c0"},
    {"BroadcastMbtUndefended", DownloadMode::kBroadcast, ProtocolKind::kMbt,
     Mix::kUndefended, "7b263ebc0c7b10950f35c29a3f6d102a54830f87",
     87281, "1ee09e6039a45bddd5ac11379bfd53469e9e129a"},
    {"PairwiseMbtFaults", DownloadMode::kPairwise, ProtocolKind::kMbt,
     Mix::kFaults, "7236bab7e0040354cfd84ba0d61c5fbeb87944bf",
     84383, "b119f236f9080bc1e75fa298fa96963b4ae1567b"},
    {"PairwiseMbtDefended", DownloadMode::kPairwise, ProtocolKind::kMbt,
     Mix::kDefended, "7a8275b0d7bc9acda1c89587869d0758d30cdedc",
     81889, "79d5da7b53af5dde8144e4ed60f8965cab376157"},
    {"PairwiseMbtUndefended", DownloadMode::kPairwise, ProtocolKind::kMbt,
     Mix::kUndefended, "83934ee6838d4a393a0d6f406a3827a22629af60",
     81587, "f5a99f9f60f9ffbed5b8c6c0852771281de1a831"},
    {"CodedMbtQmFaults", DownloadMode::kCoded, ProtocolKind::kMbtQm,
     Mix::kFaults, "7ee78803fb71b1eaef4e77b00e9d9bc630f4ece3",
     61726, "697e20460f5a0aa5bf8bb6750b38cd68ab61ff28"},
    {"CodedMbtQmDefended", DownloadMode::kCoded, ProtocolKind::kMbtQm,
     Mix::kDefended, "b316f6e4c676672b74ecf20050a5360861636901",
     69673, "190aeec9d4691201e7bc8bc9d0753f0e7d25313b"},
    {"CodedMbtQmUndefended", DownloadMode::kCoded, ProtocolKind::kMbtQm,
     Mix::kUndefended, "be889bd7d1bb0d59d1e3ae69afff49533ed3b720",
     69624, "8a13abe669e494ed78e48916ad782085ca40a271"},
    // The digest of this case was captured before metadata records were
    // shared between holders.
    {"BroadcastMbtObserved", DownloadMode::kBroadcast, ProtocolKind::kMbt,
     Mix::kFaults, "fbb4484fbad06a1a83b4b57fa730a2487cea0aba",
     93889, "6a3676896fe9626823baa9ab543e14922aac48a4", true},
    // k = 16 reaches a whole 16-byte step of the vector row kernel; every
    // other coded case runs at k = 4. The digest was captured before the
    // decoder rows were flattened.
    {"CodedMbtQmDefendedK16", DownloadMode::kCoded, ProtocolKind::kMbtQm,
     Mix::kDefended, "77951b98e49fea357d28ffb6e3cae14d476a5e52",
     118034, "20339d4b414d98bd45b880098dbb8d69a34c3866", false, 16},
    // The tit-for-tat and popularity-only (rarest-first) broadcast planners;
    // every case above plans cooperatively. Both digests were captured
    // before the download candidates were flattened.
    {"BroadcastMbtTitForTatFaults", DownloadMode::kBroadcast,
     ProtocolKind::kMbt, Mix::kFaults,
     "a4845e6e0cd62b9d8ae51929bd60b65616ecd7a5", 85483,
     "e0f6226b0471b416d540d48c8ba4c008465d923e", false, 4,
     Scheduling::kTitForTat},
    {"BroadcastMbtPopularityRarestFaults", DownloadMode::kBroadcast,
     ProtocolKind::kMbt, Mix::kFaults,
     "fefa1644f053d6e7e07a00975ccb6014c8487143", 89198,
     "39df67ef28bd894f36a8f7e45b782faaa5c7cccc", false, 4,
     Scheduling::kPopularityOnly, PushOrder::kRarestFirst},
    // MBT-Q: peer wants ride on hellos, but no query is proxied. The digest
    // was captured before peer wants were kept as file ids.
    {"BroadcastMbtQFaults", DownloadMode::kBroadcast, ProtocolKind::kMbtQ,
     Mix::kFaults, "ed4dd22c27032a8c1db8a9cc46340e29b6ca0b94", 76841,
     "e9c3b042e8dad8d5d7a24bf951b5be51ab377e1b"},
    // Bounded piece and metadata stores, forgers whose records honest nodes
    // verify and reject, and observed popularity. The digest was captured
    // before the access sync visited each file once per publish epoch.
    {"BroadcastMbtBoundedForgers", DownloadMode::kBroadcast,
     ProtocolKind::kMbt, Mix::kFaults,
     "581d37e063201525478a5b57f72e38b4d1d152a2", 94386,
     "17930bef1d3f0a4d4be1e8ee989c336061d90c65", true, 4,
     Scheduling::kCooperative, PushOrder::kPopularity, 24, 10, 0.1},
};

INSTANTIATE_TEST_SUITE_P(Matrix, EnginePin, testing::ValuesIn(kPinCases),
                         [](const testing::TestParamInfo<PinCase>& info) {
                           return std::string(info.param.name);
                         });

// One row per EngineTotals counter: the event-count identities it must
// equal, or why the event stream cannot tell it.
using Identity = std::uint64_t (*)(const PinObserver&, const EngineTotals&);

struct ParityRow {
  const char* name;
  std::uint64_t EngineTotals::*counter;
  std::vector<Identity> identities;
  /// Set exactly when `identities` is empty.
  const char* exemption = nullptr;
};

template <obs::SimEventType kType>
std::uint64_t countOf(const PinObserver& events, const EngineTotals&) {
  return events.count(kType);
}

template <faults::FaultKind kKind>
std::uint64_t faultsOf(const PinObserver& events, const EngineTotals&) {
  return events.count(obs::SimEventType::kFaultInjected,
                      static_cast<std::uint32_t>(kKind));
}

template <faults::AttackKind kKind>
std::uint64_t attacksOf(const PinObserver& events, const EngineTotals&) {
  return events.count(obs::SimEventType::kAttackInjected,
                      static_cast<std::uint32_t>(kKind));
}

std::vector<ParityRow> parityTable() {
  using E = obs::SimEventType;
  using faults::AttackKind;
  using faults::FaultKind;
  using T = EngineTotals;
  return {
      {"contactsProcessed", &T::contactsProcessed,
       {countOf<E::kContactBegin>, countOf<E::kContactEnd>,
        countOf<E::kCliqueFormed>}},
      {"filesPublished", &T::filesPublished, {countOf<E::kFilePublished>}},
      {"queriesGenerated", &T::queriesGenerated, {},
       "queries are issued at publish instants without an event"},
      {"metadataBroadcasts", &T::metadataBroadcasts,
       {countOf<E::kMetadataBroadcast>}},
      {"pieceBroadcasts", &T::pieceBroadcasts,
       {[](const PinObserver& e, const EngineTotals&) {
         return e.count(E::kPieceBroadcast) + e.count(E::kCodedBroadcast);
       }}},
      {"metadataReceptions", &T::metadataReceptions, {},
       "a record a bounded store sheds on admission is counted with no "
       "accept or reject event (Observer.EventCountsMatchEngineTotals "
       "checks accepted + rejected on unbounded stores)"},
      {"pieceReceptions", &T::pieceReceptions, {countOf<E::kPieceReceived>}},
      {"forgeriesCrafted", &T::forgeriesCrafted,
       {countOf<E::kForgeryCrafted>}},
      {"forgeriesAccepted", &T::forgeriesAccepted,
       {countOf<E::kForgeryAccepted>}},
      {"forgeriesRejected", &T::forgeriesRejected,
       {countOf<E::kMetadataRejected>}},
      {"faultMessagesDropped", &T::faultMessagesDropped,
       {faultsOf<FaultKind::kMessageLoss>}},
      {"faultContactsTruncated", &T::faultContactsTruncated,
       {faultsOf<FaultKind::kContactTruncation>}},
      {"faultPiecesRejectedCorrupt", &T::faultPiecesRejectedCorrupt,
       {faultsOf<FaultKind::kPieceCorruption>}},
      {"faultNodeDownIntervals", &T::faultNodeDownIntervals,
       {countOf<E::kNodeDown>}},
      {"recoveryFramesLost", &T::recoveryFramesLost, {},
       "the message-loss faults a recording session noted; the fault event "
       "does not say whether a session was recording"},
      {"recoveryRetransmits", &T::recoveryRetransmits,
       {countOf<E::kRetransmit>}},
      {"recoveryRedeliveries", &T::recoveryRedeliveries, {},
       "a stored retransmission is evented as an ordinary reception"},
      {"coordinatorFailovers", &T::coordinatorFailovers,
       {countOf<E::kCoordinatorFailover>}},
      {"repairRequests", &T::repairRequests, {countOf<E::kRepairRequested>}},
      {"metadataEvictions", &T::metadataEvictions,
       {countOf<E::kMetadataEvicted>}},
      {"codedBroadcasts", &T::codedBroadcasts, {countOf<E::kCodedBroadcast>}},
      {"codedInnovativeFrames", &T::codedInnovativeFrames,
       {countOf<E::kInnovativeFrame>}},
      {"codedRedundantFrames", &T::codedRedundantFrames, {},
       "a redundant reception changes no state and has no event"},
      {"generationsDecoded", &T::generationsDecoded,
       {countOf<E::kGenerationDecoded>}},
      {"codedDecodeFailures", &T::codedDecodeFailures,
       {countOf<E::kDecodeFailed>}},
      {"codedDecodeRowOps", &T::codedDecodeRowOps, {},
       "a work counter (decoder row operations), not an action"},
      {"codedDegenerateFrames", &T::codedDegenerateFrames, {},
       "rejected inside the decoder before any row operation, with no event"},
      {"adversaryAttacks", &T::adversaryAttacks,
       {countOf<E::kAttackInjected>,
        [](const PinObserver&, const EngineTotals& t) {
          return t.pollutionInjected + t.piecesLied + t.summariesForged +
                 t.acksSpoofed + t.broadcastsSuppressed;
        }}},
      {"pollutionInjected", &T::pollutionInjected,
       {attacksOf<AttackKind::kPollution>}},
      {"pollutionDetected", &T::pollutionDetected,
       {[](const PinObserver& e, const EngineTotals&) {
         return e.sumExtra(E::kPollutionDetected);
       }}},
      {"pollutedDeliveries", &T::pollutedDeliveries, {},
       "an undefended garbage generation is stored like a decoded one and "
       "has no event of its own"},
      {"generationsRolledBack", &T::generationsRolledBack,
       {countOf<E::kGenerationRolledBack>}},
      {"piecesLied", &T::piecesLied, {attacksOf<AttackKind::kPieceLie>}},
      {"summariesForged", &T::summariesForged,
       {attacksOf<AttackKind::kFalseSummary>}},
      {"acksSpoofed", &T::acksSpoofed, {attacksOf<AttackKind::kAckSpoof>}},
      {"broadcastsSuppressed", &T::broadcastsSuppressed,
       {attacksOf<AttackKind::kCoordinator>}},
      {"nodesQuarantined", &T::nodesQuarantined,
       {countOf<E::kNodeQuarantined>}},
      {"nodesReleased", &T::nodesReleased, {countOf<E::kNodeReleased>}},
      {"falseQuarantines", &T::falseQuarantines, {},
       "ground truth (was the node Byzantine?) that no event carries"},
  };
}

// Every counter of every pin run equals each of its identities, and the
// table has exactly one row per word of EngineTotalsWords.
TEST(EngineTotalsParity, EveryCounterHasAnIdentityOrANamedExemption) {
  const std::vector<ParityRow> table = parityTable();
  std::array<int, std::tuple_size_v<EngineTotalsWords>> rowsPerWord{};
  for (const ParityRow& row : table) {
    EXPECT_EQ(row.identities.empty(), row.exemption != nullptr) << row.name;
    EngineTotals probe;
    probe.*row.counter = 1;
    const EngineTotalsWords words = totalsWords(probe);
    for (std::size_t i = 0; i < words.size(); ++i) rowsPerWord[i] += words[i];
  }
  for (std::size_t i = 0; i < rowsPerWord.size(); ++i) {
    EXPECT_EQ(rowsPerWord[i], 1) << "EngineTotals word " << i;
  }

  // Every pin run, and each forger run once more with verification off, so
  // that honest nodes store forgeries.
  std::vector<std::pair<std::string, EngineParams>> runs;
  for (const PinCase& c : kPinCases) {
    runs.emplace_back(c.name, pinParams(c));
    if (c.forgerFraction > 0.0) {
      runs.emplace_back(std::string(c.name) + "Unverified", pinParams(c));
      runs.back().second.verifyMetadata = false;
    }
  }

  const trace::ContactTrace trace = pinTrace();
  std::vector<bool> exercised(table.size(), false);
  for (const auto& [name, params] : runs) {
    Engine engine(trace, params);
    PinObserver events;
    engine.setObserver(&events);
    const EngineTotals t = engine.run().totals;
    for (std::size_t r = 0; r < table.size(); ++r) {
      const ParityRow& row = table[r];
      const std::uint64_t value = t.*row.counter;
      if (value > 0) exercised[r] = true;
      for (const Identity identity : row.identities) {
        EXPECT_EQ(value, identity(events, t)) << name << ": " << row.name;
      }
    }
  }
  // An identity that only ever compares zeros checks nothing.
  for (std::size_t r = 0; r < table.size(); ++r) {
    if (!table[r].identities.empty()) {
      EXPECT_TRUE(exercised[r]) << table[r].name << " stays 0 in every run";
    }
  }
}

}  // namespace
}  // namespace hdtn::core
