// Byzantine adversary layer: attack-mask parsing, AdversaryPlan determinism
// and serialization, membership selection from the engine's role shuffle,
// and the engine-level guarantees — zero-cost-off byte-identity, pollution
// rollback under defense (no polluted delivery ever completes), quarantine
// of real attackers with no false quarantine of honest nodes under pure
// random faults, and per-attack accounting for every attack class.
#include "src/faults/adversary.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/reputation.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/events.hpp"
#include "src/trace/nus.hpp"
#include "src/util/random.hpp"

namespace hdtn::faults {
namespace {

// ---------------------------------------------------------------------------
// Attack mask parsing and naming

TEST(AdversaryParams, DefaultsAreDisabledAndValid) {
  AdversaryParams params;
  EXPECT_FALSE(params.enabled());
  EXPECT_TRUE(params.validate().empty());
  EXPECT_EQ(params.attacks, kAllAttacks);
}

TEST(AdversaryParams, EnabledNeedsFractionAndAttacks) {
  AdversaryParams params;
  params.byzantineFraction = 0.2;
  EXPECT_TRUE(params.enabled());
  params.attacks = 0;
  EXPECT_FALSE(params.enabled());
  params.attacks = static_cast<std::uint32_t>(AttackKind::kPollution);
  params.byzantineFraction = 0.0;
  EXPECT_FALSE(params.enabled());
}

TEST(AdversaryParams, ValidateRejectsBadFractionAndUnknownBits) {
  AdversaryParams params;
  params.byzantineFraction = 1.5;
  auto errors = params.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("byzantineFraction"), std::string::npos);
  params.byzantineFraction = -0.1;
  EXPECT_EQ(params.validate().size(), 1u);
  params.byzantineFraction = 0.2;
  params.attacks = kAllAttacks | (1u << 17);
  errors = params.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("unknown bits"), std::string::npos);
}

TEST(AttackMask, ParseAcceptsListsAllAndNone) {
  std::uint32_t mask = 0;
  EXPECT_TRUE(parseAttackMask("all", &mask));
  EXPECT_EQ(mask, kAllAttacks);
  EXPECT_TRUE(parseAttackMask("none", &mask));
  EXPECT_EQ(mask, 0u);
  EXPECT_TRUE(parseAttackMask("pollution,ack-spoof", &mask));
  EXPECT_EQ(mask, static_cast<std::uint32_t>(AttackKind::kPollution) |
                      static_cast<std::uint32_t>(AttackKind::kAckSpoof));
  // Spaces around tokens are tolerated.
  EXPECT_TRUE(parseAttackMask(" piece-lie , false-summary ", &mask));
  EXPECT_EQ(mask, static_cast<std::uint32_t>(AttackKind::kPieceLie) |
                      static_cast<std::uint32_t>(AttackKind::kFalseSummary));
}

TEST(AttackMask, ParseRejectsUnknownTokenAndLeavesMaskUntouched) {
  std::uint32_t mask = 0xdeadu;
  std::string error;
  EXPECT_FALSE(parseAttackMask("pollution,rateless", &mask, &error));
  EXPECT_EQ(mask, 0xdeadu);
  EXPECT_EQ(error, "rateless");
}

TEST(AttackMask, NameRoundTripsThroughParse) {
  const std::uint32_t singles[] = {
      static_cast<std::uint32_t>(AttackKind::kPollution),
      static_cast<std::uint32_t>(AttackKind::kPieceLie),
      static_cast<std::uint32_t>(AttackKind::kFalseSummary),
      static_cast<std::uint32_t>(AttackKind::kAckSpoof),
      static_cast<std::uint32_t>(AttackKind::kCoordinator),
  };
  for (std::uint32_t bit : singles) {
    std::uint32_t parsed = 0;
    ASSERT_TRUE(parseAttackMask(attackMaskName(bit), &parsed));
    EXPECT_EQ(parsed, bit) << attackMaskName(bit);
  }
  EXPECT_EQ(attackMaskName(kAllAttacks), "all");
  EXPECT_EQ(attackMaskName(0), "none");
  std::uint32_t parsed = 0;
  const std::uint32_t pair =
      static_cast<std::uint32_t>(AttackKind::kPieceLie) |
      static_cast<std::uint32_t>(AttackKind::kCoordinator);
  ASSERT_TRUE(parseAttackMask(attackMaskName(pair), &parsed));
  EXPECT_EQ(parsed, pair);
}

// ---------------------------------------------------------------------------
// AdversaryPlan: determinism, stream independence, serialization

AdversaryParams enabledParams() {
  AdversaryParams params;
  params.byzantineFraction = 0.3;
  return params;
}

TEST(AdversaryPlan, SameSeedSameDecisions) {
  AdversaryPlan a(enabledParams(), Rng(42));
  AdversaryPlan b(enabledParams(), Rng(42));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.pollutesFrame(), b.pollutesFrame());
    EXPECT_EQ(a.liesAboutPiece(), b.liesAboutPiece());
    EXPECT_EQ(a.forgesSummary(), b.forgesSummary());
    EXPECT_EQ(a.spoofedAckClaims(), b.spoofedAckClaims());
    EXPECT_EQ(a.dropsPlannedBroadcast(), b.dropsPlannedBroadcast());
  }
}

TEST(AdversaryPlan, AttackStreamsAreIndependent) {
  // Drawing heavily from one attack stream must not perturb another: the
  // pollution sequence is the same whether or not piece lies are drawn.
  AdversaryPlan pure(enabledParams(), Rng(7));
  AdversaryPlan interleaved(enabledParams(), Rng(7));
  std::vector<bool> pureSeq, interleavedSeq;
  for (int i = 0; i < 100; ++i) pureSeq.push_back(pure.pollutesFrame());
  for (int i = 0; i < 100; ++i) {
    (void)interleaved.liesAboutPiece();
    (void)interleaved.spoofedAckClaims();
    interleavedSeq.push_back(interleaved.pollutesFrame());
    (void)interleaved.forgesSummary();
  }
  EXPECT_EQ(pureSeq, interleavedSeq);
}

TEST(AdversaryPlan, DecisionRatesAreRoughlyAsConfigured) {
  AdversaryPlan plan(enabledParams(), Rng(1234));
  int pollution = 0;
  std::uint32_t claims = 0;
  for (int i = 0; i < 2000; ++i) {
    if (plan.pollutesFrame()) ++pollution;
    claims += plan.spoofedAckClaims();
    EXPECT_LE(plan.spoofedAckClaims(), 3u);
  }
  // kPollutionRate = 0.75 with a wide tolerance; a broken stream (always
  // true / always false) fails decisively.
  EXPECT_GT(pollution, 1300);
  EXPECT_LT(pollution, 1700);
  EXPECT_GT(claims, 0u);
}

TEST(AdversaryPlan, SetByzantineBuildsBitmapAndCount) {
  AdversaryPlan plan(enabledParams(), Rng(5));
  plan.setByzantine({NodeId{2}, NodeId{5}, NodeId{2}, NodeId{99}}, 10);
  EXPECT_EQ(plan.byzantineCount(), 2u);  // dupes once, out-of-range ignored
  EXPECT_TRUE(plan.isByzantine(NodeId{2}));
  EXPECT_TRUE(plan.isByzantine(NodeId{5}));
  EXPECT_FALSE(plan.isByzantine(NodeId{3}));
  EXPECT_FALSE(plan.isByzantine(NodeId{99}));
}

TEST(AdversaryPlan, AttackEnabledFollowsMask) {
  AdversaryParams params;
  params.byzantineFraction = 0.2;
  params.attacks = static_cast<std::uint32_t>(AttackKind::kPollution) |
                   static_cast<std::uint32_t>(AttackKind::kAckSpoof);
  AdversaryPlan plan(params, Rng(5));
  EXPECT_TRUE(plan.attackEnabled(AttackKind::kPollution));
  EXPECT_TRUE(plan.attackEnabled(AttackKind::kAckSpoof));
  EXPECT_FALSE(plan.attackEnabled(AttackKind::kPieceLie));
  EXPECT_FALSE(plan.attackEnabled(AttackKind::kFalseSummary));
  EXPECT_FALSE(plan.attackEnabled(AttackKind::kCoordinator));
}

TEST(AdversaryPlan, SaveLoadResumesEveryStreamExactly) {
  AdversaryPlan original(enabledParams(), Rng(77));
  // Advance the streams unevenly so the snapshot carries distinct
  // positions per attack class.
  for (int i = 0; i < 13; ++i) (void)original.pollutesFrame();
  for (int i = 0; i < 7; ++i) (void)original.liesAboutPiece();
  for (int i = 0; i < 3; ++i) (void)original.spoofedAckClaims();
  Serializer out;
  original.saveState(out);

  AdversaryPlan restored(enabledParams(), Rng(1));  // different seed on purpose
  Deserializer in(out.bytes());
  restored.loadState(in);
  EXPECT_TRUE(in.done());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(restored.pollutesFrame(), original.pollutesFrame());
    EXPECT_EQ(restored.liesAboutPiece(), original.liesAboutPiece());
    EXPECT_EQ(restored.forgesSummary(), original.forgesSummary());
    EXPECT_EQ(restored.spoofedAckClaims(), original.spoofedAckClaims());
    EXPECT_EQ(restored.dropsPlannedBroadcast(),
              original.dropsPlannedBroadcast());
  }
}

// ---------------------------------------------------------------------------
// Engine integration

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

core::EngineParams codedParams() {
  core::EngineParams params = baseParams();
  params.downloadMode = core::DownloadMode::kCoded;
  params.piecesPerFile = 4;
  return params;
}

core::EngineParams withAdversary(core::EngineParams params, double fraction,
                                 std::uint32_t attacks, bool defense) {
  params.adversary.byzantineFraction = fraction;
  params.adversary.attacks = attacks;
  params.reputation.defense = defense;
  return params;
}

std::string eventStream(const trace::ContactTrace& trace,
                        const core::EngineParams& params,
                        core::EngineResult* result = nullptr) {
  std::ostringstream out;
  obs::JsonlEventSink sink(out);
  core::Engine engine(trace, params);
  engine.setObserver(&sink);
  const core::EngineResult r = engine.run();
  if (result != nullptr) *result = r;
  return out.str();
}

/// Records which nodes each quarantine/release event named.
struct QuarantineObserver final : obs::EngineObserver {
  void onEvent(const obs::SimEvent& event) override {
    if (event.type == obs::SimEventType::kNodeQuarantined) {
      quarantined.push_back(event.node);
    } else if (event.type == obs::SimEventType::kNodeReleased) {
      released.push_back(event.node);
    }
  }
  std::vector<NodeId> quarantined;
  std::vector<NodeId> released;
};

TEST(EngineAdversary, DisabledParamsArmNothing) {
  const auto trace = smallNusTrace();
  core::Engine engine(trace, baseParams());
  EXPECT_EQ(engine.adversaryPlan(), nullptr);
  EXPECT_EQ(engine.reputationTracker(), nullptr);
}

TEST(EngineAdversary, MembershipComesFromRoleShuffle) {
  const auto trace = smallNusTrace();
  auto params = withAdversary(baseParams(), 0.5, kAllAttacks, false);
  params.freeRiderFraction = 0.2;
  core::Engine engine(trace, params);
  ASSERT_NE(engine.adversaryPlan(), nullptr);
  const AdversaryPlan& plan = *engine.adversaryPlan();
  std::size_t nonAccess = 0;
  std::size_t byzantine = 0;
  for (std::uint32_t i = 0; i < trace.nodeCount(); ++i) {
    const auto& options = engine.node(NodeId{i}).options();
    if (!options.internetAccess) ++nonAccess;
    if (!plan.isByzantine(NodeId{i})) continue;
    ++byzantine;
    // Byzantine nodes come from the honest non-access population: they
    // must transmit to attack, and the roles must not overlap.
    EXPECT_FALSE(options.internetAccess) << "node " << i;
    EXPECT_FALSE(options.freeRider) << "node " << i;
  }
  EXPECT_EQ(byzantine, plan.byzantineCount());
  EXPECT_GT(byzantine, 0u);
  EXPECT_LE(byzantine, nonAccess);
  // Determinism: a second engine with the same params picks the same set.
  core::Engine again(trace, params);
  ASSERT_NE(again.adversaryPlan(), nullptr);
  for (std::uint32_t i = 0; i < trace.nodeCount(); ++i) {
    EXPECT_EQ(plan.isByzantine(NodeId{i}),
              again.adversaryPlan()->isByzantine(NodeId{i}));
  }
}

TEST(EngineAdversary, HonestRunWithDefenseOnIsByteIdentical) {
  // The defense layer must be invisible until an anomaly appears: on a
  // faulty-but-honest run (loss, truncation, corruption, churn, recovery,
  // repair, coded download — everything on, no Byzantine nodes) the
  // defense-on event stream is byte-identical to defense-off, and no
  // honest node is ever quarantined. This is the no-false-quarantine
  // guarantee under pure random faults.
  const auto trace = smallNusTrace();
  core::EngineParams params = codedParams();
  params.faults.messageLossRate = 0.2;
  params.faults.contactTruncationRate = 0.3;
  params.faults.pieceCorruptionRate = 0.1;
  params.faults.churnDownFraction = 0.15;
  params.faults.churnMeanDowntime = 4 * kHour;
  params.recovery.maxRetries = 2;
  params.recovery.retransmitBudget = 4;
  params.recovery.repairPerContact = 4;
  params.recovery.coordinatorFailover = true;

  core::EngineResult off, on;
  const std::string offEvents = eventStream(trace, params, &off);
  params.reputation.defense = true;
  const std::string onEvents = eventStream(trace, params, &on);

  EXPECT_EQ(offEvents, onEvents);
  EXPECT_EQ(on.delivery.fileRatio, off.delivery.fileRatio);
  EXPECT_EQ(on.totals.nodesQuarantined, 0u);
  EXPECT_EQ(on.totals.falseQuarantines, 0u);
  EXPECT_EQ(on.totals.adversaryAttacks, 0u);
  EXPECT_EQ(on.totals.pollutionDetected, 0u);
  EXPECT_EQ(on.totals.generationsRolledBack, 0u);
}

TEST(EngineAdversary, PollutionIsRolledBackAndAttackersQuarantined) {
  const auto trace = smallNusTrace();
  const auto params = withAdversary(
      codedParams(), 0.3,
      static_cast<std::uint32_t>(AttackKind::kPollution), true);
  obs::CountingObserver counter;
  QuarantineObserver quarantine;
  obs::MulticastObserver observers;
  observers.add(&counter);
  observers.add(&quarantine);
  core::Engine engine(trace, params);
  engine.setObserver(&observers);
  const core::EngineResult result = engine.run();
  const core::EngineTotals& t = result.totals;

  ASSERT_GT(t.pollutionInjected, 0u);
  // Verification-at-decode: no polluted generation is ever delivered.
  EXPECT_EQ(t.pollutedDeliveries, 0u);
  EXPECT_GT(t.generationsRolledBack, 0u);
  EXPECT_GT(t.pollutionDetected, 0u);
  EXPECT_EQ(counter.count(obs::SimEventType::kGenerationRolledBack),
            t.generationsRolledBack);
  EXPECT_GT(counter.count(obs::SimEventType::kPollutionDetected), 0u);
  EXPECT_EQ(counter.count(obs::SimEventType::kAttackInjected),
            t.adversaryAttacks);
  EXPECT_EQ(t.adversaryAttacks, t.pollutionInjected);

  // Quarantine hits real attackers only.
  ASSERT_NE(engine.adversaryPlan(), nullptr);
  EXPECT_GT(t.nodesQuarantined, 0u);
  EXPECT_EQ(t.falseQuarantines, 0u);
  EXPECT_EQ(quarantine.quarantined.size(), t.nodesQuarantined);
  std::set<std::uint32_t> distinct;
  for (NodeId node : quarantine.quarantined) {
    EXPECT_TRUE(engine.adversaryPlan()->isByzantine(node))
        << "quarantined honest node " << node.value;
    distinct.insert(node.value);
  }
  EXPECT_LE(distinct.size(), engine.adversaryPlan()->byzantineCount());
  // Pieces still flow and honest generations still decode.
  EXPECT_GT(t.generationsDecoded, 0u);
  EXPECT_GT(result.delivery.fileRatio, 0.0);
}

TEST(EngineAdversary, DefenseOnBeatsDefenseOffUnderPollution) {
  const auto trace = smallNusTrace();
  const std::uint32_t pollution =
      static_cast<std::uint32_t>(AttackKind::kPollution);
  core::EngineResult off, on;
  eventStream(trace, withAdversary(codedParams(), 0.3, pollution, false),
              &off);
  eventStream(trace, withAdversary(codedParams(), 0.3, pollution, true), &on);
  // Undefended, fully-ranked-but-tainted generations complete as garbage
  // and the file is never counted delivered; defended, the rollback lets
  // honest retransmissions finish the download.
  EXPECT_GT(off.totals.pollutedDeliveries, 0u);
  EXPECT_EQ(off.totals.generationsRolledBack, 0u);
  EXPECT_EQ(off.totals.pollutionDetected, 0u);
  EXPECT_EQ(on.totals.pollutedDeliveries, 0u);
  EXPECT_GT(on.delivery.fileRatio, off.delivery.fileRatio);
}

TEST(EngineAdversary, PieceLiesAreCaughtByVerification) {
  const auto trace = smallNusTrace();
  const auto params = withAdversary(
      baseParams(), 0.3, static_cast<std::uint32_t>(AttackKind::kPieceLie),
      true);
  obs::CountingObserver counter;
  core::Engine engine(trace, params);
  engine.setObserver(&counter);
  const core::EngineResult result = engine.run();
  EXPECT_GT(result.totals.piecesLied, 0u);
  EXPECT_EQ(result.totals.adversaryAttacks, result.totals.piecesLied);
  // Every lie is rejected at the checksum, never stored: the rejection
  // event fires at least once per lie (random corruption is off here).
  EXPECT_GE(counter.count(obs::SimEventType::kPieceRejectedCorrupt),
            result.totals.piecesLied);
  EXPECT_GT(result.delivery.fileRatio, 0.0);
}

TEST(EngineAdversary, AckSpoofingBurnsRetransmitBudget) {
  const auto trace = smallNusTrace();
  core::EngineParams params = withAdversary(
      baseParams(), 0.3, static_cast<std::uint32_t>(AttackKind::kAckSpoof),
      false);
  // Ack spoofing targets metadata frames, so it needs a protocol that
  // distributes metadata through the DTN (MBT-QM keeps metadata at the
  // access points and gives the spoofers nothing to claim about).
  params.protocol.kind = core::ProtocolKind::kMbt;
  params.recovery.maxRetries = 2;
  params.recovery.retransmitBudget = 4;
  core::EngineResult r;
  eventStream(trace, params, &r);
  EXPECT_GT(r.totals.acksSpoofed, 0u);
  EXPECT_EQ(r.totals.adversaryAttacks, r.totals.acksSpoofed);
  // Spoofed claims are redelivered (burning budget) but are not lost
  // frames, so the recovery ledger invariant keeps its direction.
  EXPECT_GT(r.totals.recoveryRetransmits, 0u);
}

TEST(EngineAdversary, ForgedSummariesBurnRepairBudget) {
  const auto trace = smallNusTrace();
  core::EngineParams params = withAdversary(
      baseParams(), 0.3,
      static_cast<std::uint32_t>(AttackKind::kFalseSummary), true);
  params.faults.messageLossRate = 0.15;
  params.recovery.repairPerContact = 4;
  core::EngineResult r;
  eventStream(trace, params, &r);
  EXPECT_GT(r.totals.summariesForged, 0u);
  EXPECT_GT(r.totals.repairRequests, 0u);
}

TEST(EngineAdversary, ByzantineCoordinatorSuppressesBroadcasts) {
  const auto trace = smallNusTrace();
  const auto params = withAdversary(
      baseParams(), 0.3,
      static_cast<std::uint32_t>(AttackKind::kCoordinator), false);
  core::EngineResult abused, honest;
  eventStream(trace, params, &abused);
  eventStream(trace, withAdversary(baseParams(), 0.0, 0, false), &honest);
  EXPECT_GT(abused.totals.broadcastsSuppressed, 0u);
  EXPECT_EQ(abused.totals.adversaryAttacks,
            abused.totals.broadcastsSuppressed);
  // Dropped broadcasts are traffic that never happened.
  EXPECT_LT(abused.totals.pieceBroadcasts + abused.totals.metadataBroadcasts,
            honest.totals.pieceBroadcasts + honest.totals.metadataBroadcasts);
}

TEST(EngineAdversary, FullAttackRunsAreDeterministic) {
  const auto trace = smallNusTrace();
  core::EngineParams params =
      withAdversary(codedParams(), 0.25, kAllAttacks, true);
  params.faults.messageLossRate = 0.1;
  params.recovery.maxRetries = 2;
  params.recovery.retransmitBudget = 4;
  params.recovery.repairPerContact = 4;
  core::EngineResult a, b;
  const std::string eventsA = eventStream(trace, params, &a);
  const std::string eventsB = eventStream(trace, params, &b);
  EXPECT_EQ(eventsA, eventsB);
  EXPECT_EQ(a.totals.adversaryAttacks, b.totals.adversaryAttacks);
  EXPECT_EQ(a.delivery.fileRatio, b.delivery.fileRatio);
  EXPECT_GT(a.totals.adversaryAttacks, 0u);
}

TEST(EngineAdversary, QuarantinedSendersAreExcludedUntilReleased) {
  // Under sustained pollution the tracker must quarantine attackers and
  // the live tracker state must agree with the event stream; hysteresis
  // means releases never outnumber quarantines.
  const auto trace = smallNusTrace();
  const auto params = withAdversary(
      codedParams(), 0.3,
      static_cast<std::uint32_t>(AttackKind::kPollution), true);
  QuarantineObserver quarantine;
  core::Engine engine(trace, params);
  engine.setObserver(&quarantine);
  const core::EngineResult result = engine.run();
  ASSERT_NE(engine.reputationTracker(), nullptr);
  EXPECT_EQ(quarantine.quarantined.size(), result.totals.nodesQuarantined);
  EXPECT_EQ(quarantine.released.size(), result.totals.nodesReleased);
  EXPECT_LE(result.totals.nodesReleased, result.totals.nodesQuarantined);
  EXPECT_GE(quarantine.quarantined.size(),
            engine.reputationTracker()->quarantinedCount());
}

}  // namespace
}  // namespace hdtn::faults
