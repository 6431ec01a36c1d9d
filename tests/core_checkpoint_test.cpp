// Checkpoint/restore: a run restored at any step boundary finishes
// byte-identical (event stream and final metrics) to the uninterrupted run,
// across all protocols, both trace families, and with faults on; corrupt,
// truncated, version-mismatched, or configuration-mismatched files fail with
// a clear CheckpointError and never leave a partial restore behind.
#include "src/core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/coding.hpp"
#include "src/core/engine.hpp"
#include "src/obs/event_log.hpp"
#include "src/trace/dieselnet.hpp"
#include "src/trace/nus.hpp"
#include "src/util/serialize.hpp"
#include "src/util/sha1.hpp"

namespace hdtn::core {
namespace {

trace::ContactTrace nusTrace() {
  trace::NusParams p;
  p.students = 36;
  p.courses = 8;
  p.coursesPerStudent = 2;
  p.days = 4;
  p.attendanceRate = 0.9;
  p.seed = 11;
  return trace::generateNus(p);
}

trace::ContactTrace dieselTrace() {
  trace::DieselNetParams p;
  p.buses = 24;
  p.routes = 6;
  p.days = 4;
  p.seed = 11;
  return trace::generateDieselNet(p);
}

EngineParams paramsFor(ProtocolKind kind, bool withFaults) {
  EngineParams params;
  params.protocol.kind = kind;
  params.internetAccessFraction = 0.3;
  params.newFilesPerDay = 12;
  params.fileTtlDays = 2;
  params.seed = 21;
  params.frequentContactPeriod = kDay;
  if (withFaults) {
    params.faults.messageLossRate = 0.15;
    params.faults.contactTruncationRate = 0.2;
    params.faults.pieceCorruptionRate = 0.1;
    params.faults.churnDownFraction = 0.1;
    params.faults.churnMeanDowntime = 3 * kHour;
  }
  return params;
}

std::string ckptPath(const std::string& name) {
  return testing::TempDir() + "/" + name + ".ckpt";
}

struct FullRun {
  std::string events;
  EngineResult result;
  std::uint64_t steps = 0;
};

FullRun uninterrupted(const trace::ContactTrace& trace,
                      const EngineParams& params) {
  FullRun full;
  std::ostringstream out;
  obs::JsonlEventSink sink(out);
  Engine engine(trace, params);
  engine.setObserver(&sink);
  while (engine.step()) ++full.steps;
  full.result = engine.finish();
  full.events = out.str();
  return full;
}

void expectSameResult(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.delivery.queries, b.delivery.queries);
  EXPECT_EQ(a.delivery.metadataDelivered, b.delivery.metadataDelivered);
  EXPECT_EQ(a.delivery.filesDelivered, b.delivery.filesDelivered);
  EXPECT_EQ(a.delivery.metadataRatio, b.delivery.metadataRatio);
  EXPECT_EQ(a.delivery.fileRatio, b.delivery.fileRatio);
  EXPECT_EQ(a.delivery.meanFileDelaySeconds, b.delivery.meanFileDelaySeconds);
  EXPECT_EQ(a.accessDelivery.fileRatio, b.accessDelivery.fileRatio);
  EXPECT_EQ(a.contributorDelivery.fileRatio, b.contributorDelivery.fileRatio);
  EXPECT_EQ(a.totals.contactsProcessed, b.totals.contactsProcessed);
  EXPECT_EQ(a.totals.filesPublished, b.totals.filesPublished);
  EXPECT_EQ(a.totals.queriesGenerated, b.totals.queriesGenerated);
  EXPECT_EQ(a.totals.metadataBroadcasts, b.totals.metadataBroadcasts);
  EXPECT_EQ(a.totals.pieceBroadcasts, b.totals.pieceBroadcasts);
  EXPECT_EQ(a.totals.metadataReceptions, b.totals.metadataReceptions);
  EXPECT_EQ(a.totals.pieceReceptions, b.totals.pieceReceptions);
  EXPECT_EQ(a.totals.faultMessagesDropped, b.totals.faultMessagesDropped);
  EXPECT_EQ(a.totals.faultContactsTruncated, b.totals.faultContactsTruncated);
  EXPECT_EQ(a.totals.faultPiecesRejectedCorrupt,
            b.totals.faultPiecesRejectedCorrupt);
  EXPECT_EQ(a.totals.faultNodeDownIntervals, b.totals.faultNodeDownIntervals);
  EXPECT_EQ(a.totals.recoveryFramesLost, b.totals.recoveryFramesLost);
  EXPECT_EQ(a.totals.recoveryRetransmits, b.totals.recoveryRetransmits);
  EXPECT_EQ(a.totals.recoveryRedeliveries, b.totals.recoveryRedeliveries);
  EXPECT_EQ(a.totals.coordinatorFailovers, b.totals.coordinatorFailovers);
  EXPECT_EQ(a.totals.repairRequests, b.totals.repairRequests);
  EXPECT_EQ(a.totals.metadataEvictions, b.totals.metadataEvictions);
}

/// Saves at step boundary k, restores into a fresh engine, finishes, and
/// checks that prefix + suffix event streams and the final result equal the
/// uninterrupted run.
void checkBoundary(const trace::ContactTrace& trace,
                   const EngineParams& params, const FullRun& full,
                   std::uint64_t k, const std::string& path) {
  SCOPED_TRACE("boundary k=" + std::to_string(k));
  std::ostringstream prefixOut;
  {
    obs::JsonlEventSink sink(prefixOut);
    Engine engine(trace, params);
    engine.setObserver(&sink);
    for (std::uint64_t i = 0; i < k; ++i) ASSERT_TRUE(engine.step());
    engine.saveCheckpoint(path);
  }
  std::ostringstream suffixOut;
  obs::JsonlEventSink sink(suffixOut);
  Engine restored(trace, params);
  restored.restoreCheckpoint(path);
  restored.setObserver(&sink);
  const EngineResult result = restored.finish();
  EXPECT_EQ(prefixOut.str() + suffixOut.str(), full.events);
  expectSameResult(result, full.result);
}

void checkAllBoundaries(const trace::ContactTrace& trace,
                        const EngineParams& params, const char* tag) {
  const FullRun full = uninterrupted(trace, params);
  ASSERT_GT(full.steps, 4u);
  ASSERT_FALSE(full.events.empty());
  const std::string path = ckptPath(tag);
  for (const std::uint64_t k :
       {std::uint64_t{0}, std::uint64_t{1}, full.steps / 2, full.steps}) {
    checkBoundary(trace, params, full, k, path);
  }
}

TEST(Checkpoint, ByteIdenticalNusAllProtocols) {
  const auto trace = nusTrace();
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbt, false), "nus_mbt");
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbtQ, false), "nus_mbtq");
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbtQm, false),
                     "nus_mbtqm");
}

TEST(Checkpoint, ByteIdenticalNusWithFaults) {
  const auto trace = nusTrace();
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbt, true), "nus_mbt_f");
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbtQ, true),
                     "nus_mbtq_f");
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbtQm, true),
                     "nus_mbtqm_f");
}

TEST(Checkpoint, ByteIdenticalDieselNetAllProtocols) {
  const auto trace = dieselTrace();
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbt, false), "dn_mbt");
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbtQ, false), "dn_mbtq");
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbtQm, false),
                     "dn_mbtqm");
}

TEST(Checkpoint, ByteIdenticalDieselNetWithFaults) {
  const auto trace = dieselTrace();
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbt, true), "dn_mbt_f");
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbtQ, true), "dn_mbtq_f");
  checkAllBoundaries(trace, paramsFor(ProtocolKind::kMbtQm, true),
                     "dn_mbtqm_f");
}

EngineParams paramsWithRecovery() {
  EngineParams params = paramsFor(ProtocolKind::kMbtQm, true);
  params.recovery.maxRetries = 2;
  // Deliberately tiny in-contact budget: most noted losses spill into the
  // cross-contact pending queue, so checkpoints routinely carry live
  // retransmission state.
  params.recovery.retransmitBudget = 2;
  params.recovery.repairPerContact = 2;
  params.recovery.coordinatorFailover = true;
  params.nodeMetadataCapacity = 48;
  return params;
}

TEST(Checkpoint, ByteIdenticalWithRecoveryEnabled) {
  const auto trace = nusTrace();
  checkAllBoundaries(trace, paramsWithRecovery(), "nus_mbtqm_rec");
}

TEST(Checkpoint, ResumesMidRetransmissionByteIdentical) {
  // The hard case: the checkpoint is taken at the first boundary where
  // frames are *still queued for retransmission* — the restored engine must
  // serve those exact frames at the exact later contacts the uninterrupted
  // run did.
  const auto trace = nusTrace();
  const auto params = paramsWithRecovery();
  const FullRun full = uninterrupted(trace, params);
  const std::string path = ckptPath("mid_retx");
  std::ostringstream prefixOut;
  {
    obs::JsonlEventSink sink(prefixOut);
    Engine engine(trace, params);
    engine.setObserver(&sink);
    ASSERT_NE(engine.recoveryState(), nullptr);
    bool saved = false;
    while (engine.step()) {
      if (engine.recoveryState()->pendingCount() > 0) {
        engine.saveCheckpoint(path);
        saved = true;
        break;
      }
    }
    ASSERT_TRUE(saved) << "no step boundary left retransmissions pending";
  }
  std::ostringstream suffixOut;
  obs::JsonlEventSink sink(suffixOut);
  Engine restored(trace, params);
  restored.restoreCheckpoint(path);
  ASSERT_NE(restored.recoveryState(), nullptr);
  EXPECT_GT(restored.recoveryState()->pendingCount(), 0u);
  restored.setObserver(&sink);
  const EngineResult result = restored.finish();
  EXPECT_EQ(prefixOut.str() + suffixOut.str(), full.events);
  expectSameResult(result, full.result);
  EXPECT_GT(result.totals.recoveryRetransmits, 0u);
}

EngineParams paramsCoded() {
  EngineParams params = paramsFor(ProtocolKind::kMbtQm, true);
  params.downloadMode = DownloadMode::kCoded;
  params.piecesPerFile = 4;
  params.recovery.maxRetries = 2;
  params.recovery.retransmitBudget = 2;
  return params;
}

TEST(Checkpoint, ByteIdenticalCodedMode) {
  const auto trace = nusTrace();
  checkAllBoundaries(trace, paramsCoded(), "nus_coded");
}

TEST(Checkpoint, ResumesMidGenerationByteIdentical) {
  // The coded hard case: save at the first boundary where some decoder
  // holds partial rank (innovative frames delivered that no completed
  // decode accounts for) — the restored engine must carry every decoder's
  // row space and the coded RNG position byte-for-byte, or the suffix
  // events diverge.
  const auto trace = nusTrace();
  const auto params = paramsCoded();
  const FullRun full = uninterrupted(trace, params);
  ASSERT_GT(full.result.totals.generationsDecoded, 0u);
  const std::string path = ckptPath("mid_gen");
  std::ostringstream prefixOut;
  {
    obs::JsonlEventSink sink(prefixOut);
    Engine engine(trace, params);
    engine.setObserver(&sink);
    bool saved = false;
    while (engine.step()) {
      const EngineTotals t = engine.currentResult().totals;
      // Any innovative frame beyond 4 per decoded generation is rank
      // parked in a live decoder (each decode consumes at most
      // piecesPerFile innovative frames at its own receiver).
      if (t.codedInnovativeFrames >
          t.generationsDecoded * params.piecesPerFile) {
        engine.saveCheckpoint(path);
        saved = true;
        break;
      }
    }
    ASSERT_TRUE(saved) << "no step boundary left a generation mid-decode";
  }
  std::ostringstream suffixOut;
  obs::JsonlEventSink sink(suffixOut);
  Engine restored(trace, params);
  restored.restoreCheckpoint(path);
  restored.setObserver(&sink);
  const EngineResult result = restored.finish();
  EXPECT_EQ(prefixOut.str() + suffixOut.str(), full.events);
  expectSameResult(result, full.result);
  EXPECT_EQ(result.totals.codedBroadcasts,
            full.result.totals.codedBroadcasts);
  EXPECT_EQ(result.totals.codedInnovativeFrames,
            full.result.totals.codedInnovativeFrames);
  EXPECT_EQ(result.totals.codedRedundantFrames,
            full.result.totals.codedRedundantFrames);
  EXPECT_EQ(result.totals.generationsDecoded,
            full.result.totals.generationsDecoded);
  EXPECT_EQ(result.totals.codedDecodeRowOps,
            full.result.totals.codedDecodeRowOps);
}

EngineParams paramsAdversarial() {
  // The robustness hard case: coded download under active Byzantine attack
  // with the full defense armed — the snapshot must carry the adversary's
  // five attack-stream positions and the reputation ledger exactly.
  EngineParams params = paramsCoded();
  params.adversary.byzantineFraction = 0.3;
  params.reputation.defense = true;
  params.recovery.repairPerContact = 2;
  return params;
}

TEST(Checkpoint, ByteIdenticalUnderAdversaryWithDefense) {
  const auto trace = nusTrace();
  checkAllBoundaries(trace, paramsAdversarial(), "nus_adv");
}

TEST(Checkpoint, ResumesMidAttackByteIdentical) {
  // Save at the first boundary after attacks have fired and suspicion has
  // accrued; the resumed run must replay the exact same later attack
  // decisions, rollbacks, and quarantines as the uninterrupted run.
  const auto trace = nusTrace();
  const auto params = paramsAdversarial();
  const FullRun full = uninterrupted(trace, params);
  ASSERT_GT(full.result.totals.adversaryAttacks, 0u);
  ASSERT_GT(full.result.totals.generationsRolledBack, 0u);
  const std::string path = ckptPath("mid_attack");
  std::ostringstream prefixOut;
  {
    obs::JsonlEventSink sink(prefixOut);
    Engine engine(trace, params);
    engine.setObserver(&sink);
    bool saved = false;
    while (engine.step()) {
      const EngineTotals t = engine.currentResult().totals;
      if (t.adversaryAttacks > 0 &&
          t.adversaryAttacks < full.result.totals.adversaryAttacks) {
        engine.saveCheckpoint(path);
        saved = true;
        break;
      }
    }
    ASSERT_TRUE(saved) << "no step boundary fell mid-attack";
  }
  std::ostringstream suffixOut;
  obs::JsonlEventSink sink(suffixOut);
  Engine restored(trace, params);
  restored.restoreCheckpoint(path);
  ASSERT_NE(restored.adversaryPlan(), nullptr);
  ASSERT_NE(restored.reputationTracker(), nullptr);
  restored.setObserver(&sink);
  const EngineResult result = restored.finish();
  EXPECT_EQ(prefixOut.str() + suffixOut.str(), full.events);
  expectSameResult(result, full.result);
  EXPECT_EQ(result.totals.adversaryAttacks,
            full.result.totals.adversaryAttacks);
  EXPECT_EQ(result.totals.pollutionInjected,
            full.result.totals.pollutionInjected);
  EXPECT_EQ(result.totals.pollutionDetected,
            full.result.totals.pollutionDetected);
  EXPECT_EQ(result.totals.generationsRolledBack,
            full.result.totals.generationsRolledBack);
  EXPECT_EQ(result.totals.nodesQuarantined,
            full.result.totals.nodesQuarantined);
  EXPECT_EQ(result.totals.nodesReleased, full.result.totals.nodesReleased);
  EXPECT_EQ(result.totals.falseQuarantines,
            full.result.totals.falseQuarantines);
}

TEST(Checkpoint, FileBytesAreDeterministic) {
  const auto trace = nusTrace();
  const auto params = paramsFor(ProtocolKind::kMbtQm, true);
  Engine engine(trace, params);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(engine.step());
  const std::string pathA = ckptPath("det_a");
  const std::string pathB = ckptPath("det_b");
  engine.saveCheckpoint(pathA);
  engine.saveCheckpoint(pathB);
  std::ifstream a(pathA, std::ios::binary), b(pathB, std::ios::binary);
  const std::string bytesA((std::istreambuf_iterator<char>(a)),
                           std::istreambuf_iterator<char>());
  const std::string bytesB((std::istreambuf_iterator<char>(b)),
                           std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytesA.empty());
  EXPECT_EQ(bytesA, bytesB);
}

TEST(Checkpoint, ReadCheckpointInfoReturnsHeaderAndExtra) {
  const auto trace = nusTrace();
  const auto params = paramsFor(ProtocolKind::kMbt, false);
  Engine engine(trace, params);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(engine.step());
  const std::string path = ckptPath("info");
  engine.saveCheckpoint(path, "driver-cursor-blob");
  const CheckpointInfo info = readCheckpointInfo(path);
  EXPECT_EQ(info.version, kCheckpointVersion);
  EXPECT_EQ(info.executedEvents, 10u);
  EXPECT_EQ(info.clock, engine.now());
  EXPECT_EQ(info.extra, "driver-cursor-blob");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CheckpointErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = nusTrace();
    params_ = paramsFor(ProtocolKind::kMbtQm, false);
    // One file per test: ctest runs each test in its own process, in
    // parallel, and several tests overwrite their file with mutated bytes.
    path_ = ckptPath(
        std::string("errors_") +
        testing::UnitTest::GetInstance()->current_test_info()->name());
    Engine engine(trace_, params_);
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(engine.step());
    engine.saveCheckpoint(path_);
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }

  void expectRestoreThrows(const std::string& needle) {
    Engine engine(trace_, params_);
    try {
      engine.restoreCheckpoint(path_);
      FAIL() << "restoreCheckpoint did not throw";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
    // Never a partial restore: the engine is still fresh and finishes to the
    // same result as an untouched run.
    expectSameResult(engine.finish(), runSimulation(trace_, params_));
  }

  trace::ContactTrace trace_;
  EngineParams params_;
  std::string path_;
  std::string bytes_;
};

TEST_F(CheckpointErrors, MissingFile) {
  Engine engine(trace_, params_);
  EXPECT_THROW(engine.restoreCheckpoint(testing::TempDir() + "/nope.ckpt"),
               CheckpointError);
}

TEST_F(CheckpointErrors, BadMagic) {
  std::string mutated = bytes_;
  mutated[0] = 'X';
  spit(path_, mutated);
  expectRestoreThrows("bad magic");
}

TEST_F(CheckpointErrors, TruncatedHeader) {
  spit(path_, bytes_.substr(0, 16));
  expectRestoreThrows("truncated checkpoint");
}

TEST_F(CheckpointErrors, TruncatedPayload) {
  spit(path_, bytes_.substr(0, bytes_.size() - 7));
  expectRestoreThrows("truncated checkpoint");
}

TEST_F(CheckpointErrors, CorruptPayloadFailsChecksum) {
  std::string mutated = bytes_;
  mutated[mutated.size() / 2] ^= 0x40;
  spit(path_, mutated);
  expectRestoreThrows("checksum mismatch");
}

TEST_F(CheckpointErrors, VersionMismatch) {
  std::string mutated = bytes_;
  mutated[8] = 99;  // u32 version lives at offset 8, little-endian
  spit(path_, mutated);
  expectRestoreThrows("unsupported checkpoint version 99");
}

TEST_F(CheckpointErrors, DifferentSeedFailsFingerprint) {
  EngineParams other = params_;
  other.seed += 1;
  Engine engine(trace_, other);
  EXPECT_THROW(engine.restoreCheckpoint(path_), CheckpointError);
}

TEST_F(CheckpointErrors, DifferentProtocolFailsFingerprint) {
  EngineParams other = params_;
  other.protocol.kind = ProtocolKind::kMbt;
  Engine engine(trace_, other);
  try {
    engine.restoreCheckpoint(path_);
    FAIL() << "restoreCheckpoint did not throw";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("different run configuration"),
              std::string::npos);
  }
}

TEST_F(CheckpointErrors, DifferentRecoveryParamsFailFingerprint) {
  EngineParams other = params_;
  other.recovery.maxRetries = 2;
  Engine engine(trace_, other);
  EXPECT_THROW(engine.restoreCheckpoint(path_), CheckpointError);
}

TEST_F(CheckpointErrors, DifferentAdversaryParamsFailFingerprint) {
  EngineParams other = params_;
  other.adversary.byzantineFraction = 0.2;
  Engine engine(trace_, other);
  EXPECT_THROW(engine.restoreCheckpoint(path_), CheckpointError);
}

TEST_F(CheckpointErrors, DifferentDefenseParamsFailFingerprint) {
  EngineParams other = params_;
  other.reputation.defense = true;
  Engine engine(trace_, other);
  EXPECT_THROW(engine.restoreCheckpoint(path_), CheckpointError);
}

// The four evidence weights joined the fingerprint after v5: a defended run
// saved with the default weights must not restore under any other weight.
TEST_F(CheckpointErrors, DifferentEvidenceWeightsFailFingerprint) {
  EngineParams defended = params_;
  defended.reputation.defense = true;
  Engine saver(trace_, defended);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(saver.step());
  saver.saveCheckpoint(path_);

  Engine same(trace_, defended);
  EXPECT_NO_THROW(same.restoreCheckpoint(path_));
  const std::vector<double ReputationParams::*> weights = {
      &ReputationParams::failedVerificationWeight,
      &ReputationParams::summaryMismatchWeight,
      &ReputationParams::ackAnomalyWeight,
      &ReputationParams::broadcastSuppressedWeight};
  for (double ReputationParams::*weight : weights) {
    EngineParams other = defended;
    other.reputation.*weight = 2.5;
    Engine engine(trace_, other);
    EXPECT_THROW(engine.restoreCheckpoint(path_), CheckpointError);
  }
}

TEST_F(CheckpointErrors, DifferentMetadataCapacityFailsFingerprint) {
  EngineParams other = params_;
  other.nodeMetadataCapacity = 32;
  Engine engine(trace_, other);
  EXPECT_THROW(engine.restoreCheckpoint(path_), CheckpointError);
}

TEST_F(CheckpointErrors, DifferentTraceFailsFingerprint) {
  const auto other = dieselTrace();
  Engine engine(other, params_);
  EXPECT_THROW(engine.restoreCheckpoint(path_), CheckpointError);
}

TEST_F(CheckpointErrors, RestoreOnSteppedEngineThrowsLogicError) {
  Engine engine(trace_, params_);
  ASSERT_TRUE(engine.step());
  EXPECT_THROW(engine.restoreCheckpoint(path_), std::logic_error);
}

TEST_F(CheckpointErrors, RestoreWithObserverAttachedThrowsLogicError) {
  obs::CountingObserver counter;
  Engine engine(trace_, params_);
  engine.setObserver(&counter);
  EXPECT_THROW(engine.restoreCheckpoint(path_), std::logic_error);
}

TEST_F(CheckpointErrors, SaveAfterFinishThrowsLogicError) {
  Engine engine(trace_, params_);
  engine.run();
  EXPECT_THROW(engine.saveCheckpoint(ckptPath("late")), std::logic_error);
}

TEST_F(CheckpointErrors, ReadCheckpointInfoRejectsCorruptFiles) {
  std::string mutated = bytes_;
  mutated[mutated.size() - 1] ^= 0x01;
  spit(path_, mutated);
  EXPECT_THROW(readCheckpointInfo(path_), CheckpointError);
}

// The coded decoder table of a saved engine: where each listed member id
// and each of its file ids sits in the payload.
struct DecoderTableLayout {
  std::vector<std::size_t> memberAt;
  std::vector<std::vector<std::size_t>> fileAt;
};

// Walks a v5 engine payload of a coded run with faults, recovery, the
// adversary and the defense all off, up to and through its decoder table.
DecoderTableLayout decoderTableLayout(std::string_view payload) {
  DecoderTableLayout layout;
  Deserializer in(payload);
  const auto at = [&] { return payload.size() - in.remaining(); };
  (void)in.u64();  // executed events
  (void)in.i64();  // clock
  (void)in.str();  // caller blob
  Sha1Digest fingerprint;
  in.raw(fingerprint.bytes.data(), fingerprint.bytes.size());
  for (int i = 0; i < 4; ++i) (void)in.u64();  // engine RNG
  if (in.boolean()) {
    for (int i = 0; i < 4; ++i) (void)in.u64();  // publish RNG
  }
  for (std::size_t i = 0; i < sizeof(EngineTotals) / sizeof(std::uint64_t);
       ++i) {
    (void)in.u64();
  }
  (void)in.u32();  // next forged id
  (void)in.i64();  // expiry scan watermark
  for (int section = 0; section < 4; ++section) {
    EXPECT_FALSE(in.boolean());  // faults, recovery, adversary, reputation
  }
  EXPECT_TRUE(in.boolean());  // coded state
  for (int i = 0; i < 4; ++i) (void)in.u64();  // coded RNG
  const std::uint64_t members = in.u64();
  for (std::uint64_t m = 0; m < members; ++m) {
    layout.memberAt.push_back(at());
    (void)in.u32();
    layout.fileAt.emplace_back();
    const std::uint64_t files = in.u64();
    for (std::uint64_t f = 0; f < files; ++f) {
      layout.fileAt.back().push_back(at());
      (void)in.u32();
      coding::GenerationDecoder decoder;
      decoder.loadState(in);
    }
  }
  return layout;
}

std::uint32_t readU32(const std::string& bytes, std::size_t offset) {
  Deserializer in(std::string_view(bytes).substr(offset, 4));
  return in.u32();
}

void writeU32(std::string& bytes, std::size_t offset, std::uint32_t value) {
  Serializer out;
  out.u32(value);
  bytes.replace(offset, 4, out.bytes());
}

// Hand-edits the decoder table of a valid coded checkpoint and re-seals the
// payload digest, so only the restore checks stand between the edit and
// the engine.
class CheckpointDecoderTable : public ::testing::Test {
 protected:
  static constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 20;
  static constexpr std::size_t kDigestAt = 8 + 4 + 8;

  void SetUp() override {
    trace_ = nusTrace();
    params_ = paramsFor(ProtocolKind::kMbtQm, false);
    params_.downloadMode = DownloadMode::kCoded;
    params_.piecesPerFile = 4;
    path_ = ckptPath(
        std::string("decoder_table_") +
        testing::UnitTest::GetInstance()->current_test_info()->name());
    // The first step boundary where two members are listed and some
    // member has two generations in flight.
    Engine engine(trace_, params_);
    while (engine.step()) {
      engine.saveCheckpoint(path_);
      bytes_ = slurp(path_);
      layout_ = decoderTableLayout(
          std::string_view(bytes_).substr(kHeaderBytes));
      for (std::size_t m = 0; m < layout_.fileAt.size(); ++m) {
        if (layout_.fileAt[m].size() >= 2 && layout_.memberAt.size() >= 2) {
          twoFiles_ = m;
          return;
        }
      }
    }
    FAIL() << "no step boundary had two generations in flight at a member";
  }

  void writeResealed(std::string bytes) {
    const Sha1Digest digest =
        Sha1::hash(std::string_view(bytes).substr(kHeaderBytes));
    bytes.replace(kDigestAt, digest.bytes.size(),
                  reinterpret_cast<const char*>(digest.bytes.data()),
                  digest.bytes.size());
    spit(path_, bytes);
  }

  void expectRestoreThrows(std::string bytes, const std::string& needle) {
    writeResealed(std::move(bytes));
    Engine engine(trace_, params_);
    try {
      engine.restoreCheckpoint(path_);
      FAIL() << "restoreCheckpoint did not throw";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  }

  trace::ContactTrace trace_;
  EngineParams params_;
  std::string path_;
  std::string bytes_;
  DecoderTableLayout layout_;
  std::size_t twoFiles_ = 0;
};

TEST_F(CheckpointDecoderTable, UneditedTableRestores) {
  writeResealed(bytes_);
  Engine engine(trace_, params_);
  engine.restoreCheckpoint(path_);
  expectSameResult(engine.finish(), runSimulation(trace_, params_));
}

TEST_F(CheckpointDecoderTable, RejectsMemberIdBeyondNodeCount) {
  std::string bytes = bytes_;
  writeU32(bytes, kHeaderBytes + layout_.memberAt.back(),
           static_cast<std::uint32_t>(trace_.nodeCount()));
  expectRestoreThrows(bytes, "decoder member id");
}

TEST_F(CheckpointDecoderTable, RejectsRepeatedMemberId) {
  std::string bytes = bytes_;
  writeU32(bytes, kHeaderBytes + layout_.memberAt[1],
           readU32(bytes, kHeaderBytes + layout_.memberAt[0]));
  expectRestoreThrows(bytes, "decoder member ids not ascending");
}

TEST_F(CheckpointDecoderTable, RejectsDuplicateFileId) {
  std::string bytes = bytes_;
  const std::vector<std::size_t>& files = layout_.fileAt[twoFiles_];
  writeU32(bytes, kHeaderBytes + files[1],
           readU32(bytes, kHeaderBytes + files[0]));
  expectRestoreThrows(bytes, "not ascending");
}

TEST_F(CheckpointDecoderTable, RejectsDescendingFileIds) {
  std::string bytes = bytes_;
  const std::vector<std::size_t>& files = layout_.fileAt[twoFiles_];
  const std::uint32_t first = readU32(bytes, kHeaderBytes + files[0]);
  const std::uint32_t second = readU32(bytes, kHeaderBytes + files[1]);
  writeU32(bytes, kHeaderBytes + files[0], second);
  writeU32(bytes, kHeaderBytes + files[1], first);
  expectRestoreThrows(bytes, "not ascending");
}

}  // namespace
}  // namespace hdtn::core
