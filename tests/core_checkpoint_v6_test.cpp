// Checkpoint format v6 (docs/CHECKPOINT.md, "Value references"): a
// component state writes each shared record and query once and peer wants
// as file ids. Three v5 files, saved by the last build that wrote v5, still
// restore, finish byte-identical to the uninterrupted run, and re-save as
// the v6 bytes a direct save writes at that point. Saving, restoring and
// saving again gives the same bytes, and hand-edited v6 files fail with
// CheckpointError.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "src/core/checkpoint.hpp"
#include "src/core/engine.hpp"
#include "src/core/sharded_engine.hpp"
#include "src/faults/adversary.hpp"
#include "src/obs/event_log.hpp"
#include "src/trace/dieselnet.hpp"
#include "src/trace/nus.hpp"
#include "src/util/sha1.hpp"
#include "tests/checkpoint_walk.hpp"

namespace hdtn::core {
namespace {

// The v5 fixtures in tests/golden were saved from exactly these traces and
// parameters; the configuration fingerprint checks that on every restore.

trace::ContactTrace fixtureNusTrace() {
  trace::NusParams p;
  p.students = 24;
  p.courses = 5;
  p.coursesPerStudent = 2;
  p.days = 4;
  p.attendanceRate = 0.9;
  p.seed = 13;
  return trace::generateNus(p);
}

EngineParams baseFixtureParams(ProtocolKind kind) {
  EngineParams p;
  p.protocol.kind = kind;
  p.internetAccessFraction = 0.3;
  p.newFilesPerDay = 10;
  p.fileTtlDays = 2;
  p.frequentContactPeriod = kDay;
  p.seed = 17;
  return p;
}

// MBT with observed popularity, forgers and bounded stores: stores hold
// several popularity snapshots of one file and forged records, and the
// state has stored proxied queries, peer wants and search caches.
EngineParams mbtFixtureParams() {
  EngineParams p = baseFixtureParams(ProtocolKind::kMbt);
  p.useObservedPopularity = true;
  p.forgerFraction = 0.1;
  p.verifyMetadata = true;
  p.nodeMetadataCapacity = 10;
  p.nodePieceCapacity = 24;
  return p;
}

// Coded MBT-QM under faults, with the recovery queue, the adversary and
// the defense.
EngineParams codedFixtureParams() {
  EngineParams p = baseFixtureParams(ProtocolKind::kMbtQm);
  p.downloadMode = DownloadMode::kCoded;
  p.piecesPerFile = 4;
  p.faults.messageLossRate = 0.25;
  p.faults.contactTruncationRate = 0.2;
  p.faults.pieceCorruptionRate = 0.15;
  p.recovery.maxRetries = 2;
  p.recovery.retransmitBudget = 16;
  p.recovery.repairPerContact = 4;
  p.recovery.coordinatorFailover = true;
  p.adversary.byzantineFraction = 0.2;
  p.adversary.attacks = faults::kAllAttacks;
  p.reputation.defense = true;
  return p;
}

trace::ContactTrace fixtureDieselTrace() {
  trace::DieselNetParams p;
  p.buses = 10;
  p.routes = 3;
  p.days = 4;
  p.seed = 5;
  return trace::generateDieselNet(p);
}

// MBT over two shards; the sharded fixture was saved at 2 days.
ShardedParams shardedFixtureParams() {
  ShardedParams params;
  params.engine = baseFixtureParams(ProtocolKind::kMbt);
  params.engine.frequentContactPeriod = 3 * kDay;
  params.shards = 2;
  params.threads = 2;
  return params;
}

constexpr char kExtra[] = "v5 fixture";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string fixturePath(const char* name) {
  return std::string(HDTN_GOLDEN_DIR) + "/" + name;
}

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/v6_" +
         testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
         name + ".ckpt";
}

// The four delivery reports and every totals word, exactly.
std::string resultText(const EngineResult& result) {
  std::string text;
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
  return text;
}

// Restores the v5 fixture at `path`, finishes it and re-saves it, against
// the uninterrupted run of the same configuration.
void checkEngineFixture(const std::string& path, const char* sha1,
                        const trace::ContactTrace& trace,
                        const EngineParams& params) {
  EXPECT_EQ(Sha1::hash(slurp(path)).hex(), sha1) << path;
  const CheckpointInfo info = readCheckpointInfo(path);
  ASSERT_EQ(info.version, kOldestCheckpointVersion);
  ASSERT_EQ(info.extra, kExtra);

  // The uninterrupted run, with the events it wrote up to the fixture.
  std::ostringstream fullEvents;
  obs::JsonlEventSink fullSink(fullEvents);
  Engine full(trace, params);
  full.setObserver(&fullSink);
  for (std::uint64_t i = 0; i < info.executedEvents; ++i) {
    ASSERT_TRUE(full.step());
  }
  const std::size_t prefixBytes = fullEvents.str().size();
  const EngineResult fullResult = full.finish();

  // A v6 save where the fixture was saved, by a run that, like the one
  // that wrote the fixture, has no observer (an observer moves the file
  // expiry watermark, which the checkpoint holds).
  Engine direct(trace, params);
  for (std::uint64_t i = 0; i < info.executedEvents; ++i) {
    ASSERT_TRUE(direct.step());
  }
  const std::string directPath = tempPath("direct");
  direct.saveCheckpoint(directPath, kExtra);

  Engine restored(trace, params);
  restored.restoreCheckpoint(path);
  EXPECT_EQ(restored.now(), info.clock);
  const std::string resavedPath = tempPath("resaved");
  restored.saveCheckpoint(resavedPath, kExtra);
  const std::string resaved = slurp(resavedPath);
  EXPECT_EQ(readCheckpointInfo(resavedPath).version, kCheckpointVersion);
  EXPECT_EQ(resaved, slurp(directPath));

  std::ostringstream suffixEvents;
  obs::JsonlEventSink suffixSink(suffixEvents);
  restored.setObserver(&suffixSink);
  const EngineResult result = restored.finish();
  EXPECT_EQ(fullEvents.str().substr(0, prefixBytes) + suffixEvents.str(),
            fullEvents.str());
  EXPECT_EQ(resultText(result), resultText(fullResult));
}

TEST(CheckpointV5Fixture, MbtResumesIdenticallyAndResavesAsV6) {
  const std::string path = fixturePath("checkpoint_v5_mbt.ckpt");
  const trace::ContactTrace trace = fixtureNusTrace();
  checkEngineFixture(path, "b790b5d000e45f378d3acb1b355c72e978fb5027", trace,
                     mbtFixtureParams());

  // The fixture holds what it is meant to.
  Engine engine(trace, mbtFixtureParams());
  engine.restoreCheckpoint(path);
  const FileCatalog& catalog = engine.internet().catalog();
  bool snapshot = false;
  bool forged = false;
  bool proxied = false;
  bool wants = false;
  for (std::uint32_t i = 0; i < engine.nodeCount(); ++i) {
    const Node& node = engine.node(NodeId(i));
    for (const Metadata* md : node.metadata().all()) {
      const FileInfo* info = catalog.find(md->file);
      if (info == nullptr) {
        forged = true;
      } else if (md->popularity != catalog.metadataFor(md->file).popularity) {
        snapshot = true;
      }
    }
    proxied |= !node.proxiedQueryTexts(engine.now()).empty();
    wants |= !node.peerWantedFiles(engine.now()).empty();
  }
  EXPECT_TRUE(snapshot);
  EXPECT_TRUE(forged);
  EXPECT_TRUE(proxied);
  EXPECT_TRUE(wants);
}

TEST(CheckpointV5Fixture, CodedAdversaryResumesIdenticallyAndResavesAsV6) {
  const std::string path = fixturePath("checkpoint_v5_coded.ckpt");
  const trace::ContactTrace trace = fixtureNusTrace();
  checkEngineFixture(path, "f054975e616024ea83046970feac4374eea5d5ad", trace,
                     codedFixtureParams());
  Engine engine(trace, codedFixtureParams());
  engine.restoreCheckpoint(path);
  ASSERT_NE(engine.recoveryState(), nullptr);
  EXPECT_GT(engine.recoveryState()->pendingCount(), 0u);
}

TEST(CheckpointV5Fixture, ShardedResumesIdenticallyAndResavesAsV6) {
  const std::string path = fixturePath("checkpoint_v5_sharded.ckpt");
  EXPECT_EQ(Sha1::hash(slurp(path)).hex(),
            "d42c10887ec49ef00c378fc05c6eb56950c07c76");
  const trace::ContactTrace trace = fixtureDieselTrace();

  ShardedEngine direct(trace, shardedFixtureParams());
  direct.runUntil(2 * kDay);
  const std::string directPath = tempPath("direct");
  direct.saveCheckpoint(directPath, kExtra);
  const EngineResult expected = direct.run();

  ShardedEngine restored(trace, shardedFixtureParams());
  restored.restoreCheckpoint(path);
  const std::string resavedPath = tempPath("resaved");
  restored.saveCheckpoint(resavedPath, kExtra);
  EXPECT_EQ(slurp(resavedPath), slurp(directPath));
  EXPECT_EQ(resultText(restored.run()), resultText(expected));
}

// Records and queries match by value, not by address. With observed
// popularity a store that raises a held record's popularity keeps a
// private copy equal in every field to the catalog's new snapshot, so a
// run holds equal records as distinct objects; restore re-shares them as
// one. A save that matched by address would write such a record twice
// before the restore and once after it.
TEST(CheckpointV6, SaveRestoreSaveIsIdentical) {
  trace::NusParams tp;
  tp.students = 60;
  tp.courses = 12;
  tp.coursesPerStudent = 2;
  tp.days = 6;
  tp.attendanceRate = 0.9;
  tp.seed = 5;
  const trace::ContactTrace trace = trace::generateNus(tp);
  EngineParams params = baseFixtureParams(ProtocolKind::kMbt);
  params.newFilesPerDay = 12;
  params.seed = 11;
  params.useObservedPopularity = true;
  params.forgerFraction = 0.1;
  params.verifyMetadata = true;
  Engine engine(trace, params);
  for (int seventh = 4; seventh <= 6; ++seventh) {
    const SimTime at = trace.endTime() * seventh / 7;
    engine.runUntil(at);
    std::map<std::pair<FileId, double>, std::set<const Metadata*>> objects;
    for (std::uint32_t i = 0; i < engine.nodeCount(); ++i) {
      for (const Metadata* md : engine.node(NodeId(i)).metadata().all()) {
        objects[{md->file, md->popularity}].insert(md);
      }
    }
    EXPECT_TRUE(std::any_of(objects.begin(), objects.end(),
                            [](const auto& entry) {
                              return entry.second.size() > 1;
                            }))
        << "no record is held as two objects at t=" << at;

    const std::string first = tempPath("first");
    engine.saveCheckpoint(first, kExtra);
    Engine restored(trace, params);
    restored.restoreCheckpoint(first);
    const std::string second = tempPath("second");
    restored.saveCheckpoint(second, kExtra);
    EXPECT_EQ(slurp(second), slurp(first)) << "at t=" << at;
  }
}

// A v6 MBT checkpoint hand-edited at a known reference or want, its digest
// re-sealed, so only the restore checks stand between the edit and the
// engine.
class CheckpointV6Edits : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = fixtureNusTrace();
    params_ = baseFixtureParams(ProtocolKind::kMbt);
    path_ = tempPath("edit");
    Engine engine(trace_, params_);
    engine.runUntil(trace_.endTime() / 2);
    engine.saveCheckpoint(path_);
    bytes_ = slurp(path_);
    layout_ = testutil::walkV6Payload(
        std::string_view(bytes_).substr(testutil::kCheckpointHeaderBytes));
  }

  // The first reference of `refs` that names an object written before.
  static std::size_t firstBackReference(const std::vector<testutil::RefAt>& refs) {
    for (const testutil::RefAt& ref : refs) {
      if (!ref.inlineFollows) return ref.at;
    }
    ADD_FAILURE() << "no reference names an earlier object";
    return 0;
  }

  void expectRestoreThrows(std::string bytes, const std::string& needle) {
    testutil::resealCheckpoint(bytes);
    spit(path_, bytes);
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
  testutil::PayloadLayout layout_;
};

TEST_F(CheckpointV6Edits, UneditedFileRestores) {
  ASSERT_FALSE(layout_.records.empty());
  ASSERT_FALSE(layout_.queries.empty());
  Engine engine(trace_, params_);
  engine.restoreCheckpoint(path_);
  EXPECT_EQ(resultText(engine.finish()),
            resultText(runSimulation(trace_, params_)));
}

TEST_F(CheckpointV6Edits, RejectsRecordReferencePastTheTable) {
  std::string bytes = bytes_;
  testutil::writeU32At(
      bytes,
      testutil::kCheckpointHeaderBytes + firstBackReference(layout_.records),
      1000000);
  expectRestoreThrows(bytes, "record reference 1000000 is past the table");
}

TEST_F(CheckpointV6Edits, RejectsQueryReferencePastTheTable) {
  std::string bytes = bytes_;
  testutil::writeU32At(
      bytes,
      testutil::kCheckpointHeaderBytes + firstBackReference(layout_.queries),
      1000000);
  expectRestoreThrows(bytes, "query reference 1000000 is past the table");
}

TEST_F(CheckpointV6Edits, RejectsWantsOutOfIdOrder) {
  for (const std::vector<std::size_t>& wants : layout_.wantAt) {
    if (wants.size() < 2) continue;
    std::string bytes = bytes_;
    const std::size_t first = testutil::kCheckpointHeaderBytes + wants[0];
    const std::size_t second = testutil::kCheckpointHeaderBytes + wants[1];
    const std::uint32_t a = testutil::readU32At(bytes, first);
    const std::uint32_t b = testutil::readU32At(bytes, second);
    testutil::writeU32At(bytes, first, b);
    testutil::writeU32At(bytes, second, a);
    expectRestoreThrows(bytes, "peer wants not in ascending file-id order");
    return;
  }
  FAIL() << "no node holds two peer wants";
}

// Swaps the u32 values at two payload offsets.
void swapU32(std::string& bytes, std::size_t a, std::size_t b) {
  const std::uint32_t first =
      testutil::readU32At(bytes, testutil::kCheckpointHeaderBytes + a);
  const std::uint32_t second =
      testutil::readU32At(bytes, testutil::kCheckpointHeaderBytes + b);
  testutil::writeU32At(bytes, testutil::kCheckpointHeaderBytes + a, second);
  testutil::writeU32At(bytes, testutil::kCheckpointHeaderBytes + b, first);
}

// The first node's ledger that credits two peers or more.
const std::vector<std::size_t>* twoCreditPeers(
    const testutil::PayloadLayout& layout) {
  for (const std::vector<std::size_t>& peers : layout.creditPeerAt) {
    if (peers.size() >= 2) return &peers;
  }
  ADD_FAILURE() << "no node credits two peers";
  return nullptr;
}

TEST_F(CheckpointV6Edits, RejectsRepeatedCreditPeer) {
  const std::vector<std::size_t>* peers = twoCreditPeers(layout_);
  ASSERT_NE(peers, nullptr);
  std::string bytes = bytes_;
  testutil::writeU32At(
      bytes, testutil::kCheckpointHeaderBytes + (*peers)[1],
      testutil::readU32At(bytes,
                          testutil::kCheckpointHeaderBytes + (*peers)[0]));
  expectRestoreThrows(bytes, "peer ids not strictly ascending");
}

TEST_F(CheckpointV6Edits, RejectsDescendingCreditPeers) {
  const std::vector<std::size_t>* peers = twoCreditPeers(layout_);
  ASSERT_NE(peers, nullptr);
  std::string bytes = bytes_;
  swapU32(bytes, (*peers)[0], (*peers)[1]);
  expectRestoreThrows(bytes, "peer ids not strictly ascending");
}

TEST_F(CheckpointV6Edits, RejectsMetricsRecordIdThatIsNotItsIndex) {
  ASSERT_GE(layout_.metricIdAt.size(), 2u);
  std::string bytes = bytes_;
  swapU32(bytes, layout_.metricIdAt[0], layout_.metricIdAt[1]);
  expectRestoreThrows(bytes, "record 0 carries id 1");
}

TEST_F(CheckpointV6Edits, RejectsTruncatedInlineRecord) {
  // The payload ends halfway through the last record written in full; the
  // header's payload size follows the cut, so the envelope verifies.
  const testutil::RefAt* last = nullptr;
  for (const testutil::RefAt& ref : layout_.records) {
    if (ref.inlineFollows) last = &ref;
  }
  ASSERT_NE(last, nullptr);
  std::string bytes =
      bytes_.substr(0, testutil::kCheckpointHeaderBytes +
                           (last->at + 4 + last->end) / 2);
  Serializer size;
  size.u64(bytes.size() - testutil::kCheckpointHeaderBytes);
  bytes.replace(8 + 4, 8, size.bytes());
  expectRestoreThrows(bytes, "malformed checkpoint payload");
}

}  // namespace
}  // namespace hdtn::core
