#include "src/core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "src/trace/dieselnet.hpp"
#include "src/trace/nus.hpp"
#include "src/trace/trace_stats.hpp"
#include "src/util/string_util.hpp"

namespace hdtn::core {
namespace {

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

trace::ContactTrace smallDieselTrace(std::uint64_t seed = 3) {
  trace::DieselNetParams p;
  p.buses = 16;
  p.routes = 4;
  p.days = 6;
  p.seed = seed;
  return trace::generateDieselNet(p);
}

EngineParams baseParams(ProtocolKind kind) {
  EngineParams params;
  params.protocol.kind = kind;
  params.internetAccessFraction = 0.3;
  params.newFilesPerDay = 20;
  params.fileTtlDays = 2;
  params.seed = 7;
  params.frequentContactPeriod = kDay;
  return params;
}

void expectReportsEqual(const DeliveryReport& a, const DeliveryReport& b,
                        const char* which) {
  EXPECT_EQ(a.queries, b.queries) << which;
  EXPECT_EQ(a.metadataDelivered, b.metadataDelivered) << which;
  EXPECT_EQ(a.filesDelivered, b.filesDelivered) << which;
  EXPECT_EQ(a.metadataRatio, b.metadataRatio) << which;
  EXPECT_EQ(a.fileRatio, b.fileRatio) << which;
  EXPECT_EQ(a.meanMetadataDelaySeconds, b.meanMetadataDelaySeconds) << which;
  EXPECT_EQ(a.meanFileDelaySeconds, b.meanFileDelaySeconds) << which;
}

void expectResultsIdentical(const EngineResult& a, const EngineResult& b) {
  expectReportsEqual(a.delivery, b.delivery, "delivery");
  expectReportsEqual(a.accessDelivery, b.accessDelivery, "accessDelivery");
  expectReportsEqual(a.contributorDelivery, b.contributorDelivery,
                     "contributorDelivery");
  expectReportsEqual(a.freeRiderDelivery, b.freeRiderDelivery,
                     "freeRiderDelivery");
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

TEST(Engine, DeterministicForSameSeed) {
  // Same trace + same params must reproduce every counter exactly, for
  // every protocol and both trace families: the contact-path caches (store
  // views, tokenized queries, planner indices) may never leak state between
  // runs or alter behavior.
  for (const ProtocolKind kind :
       {ProtocolKind::kMbt, ProtocolKind::kMbtQ, ProtocolKind::kMbtQm}) {
    const auto nus = smallNusTrace();
    expectResultsIdentical(runSimulation(nus, baseParams(kind)),
                           runSimulation(nus, baseParams(kind)));
    const auto diesel = smallDieselTrace();
    auto params = baseParams(kind);
    params.frequentContactPeriod = 3 * kDay;
    expectResultsIdentical(runSimulation(diesel, params),
                           runSimulation(diesel, params));
  }
}

TEST(Engine, DifferentSeedsChangeOutcomes) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  const auto a = runSimulation(trace, params);
  params.seed = 8;
  const auto b = runSimulation(trace, params);
  EXPECT_NE(a.delivery.queries, b.delivery.queries);
}

TEST(Engine, AccessNodesFullyServed) {
  const auto trace = smallNusTrace();
  for (auto kind : {ProtocolKind::kMbt, ProtocolKind::kMbtQ,
                    ProtocolKind::kMbtQm}) {
    const auto result = runSimulation(trace, baseParams(kind));
    ASSERT_GT(result.accessDelivery.queries, 0u);
    EXPECT_DOUBLE_EQ(result.accessDelivery.metadataRatio, 1.0);
    EXPECT_DOUBLE_EQ(result.accessDelivery.fileRatio, 1.0);
  }
}

TEST(Engine, FilePublicationFollowsParameters) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  const auto result = runSimulation(trace, params);
  // 5-day trace -> 5 publications of 20 files each at 14:00.
  EXPECT_EQ(result.totals.filesPublished, 100u);
  EXPECT_GT(result.totals.queriesGenerated, 0u);
  EXPECT_EQ(result.totals.queriesGenerated,
            result.delivery.queries + result.accessDelivery.queries);
}

TEST(Engine, MbtQmSendsNoMetadata) {
  const auto trace = smallNusTrace();
  const auto result = runSimulation(trace, baseParams(ProtocolKind::kMbtQm));
  EXPECT_EQ(result.totals.metadataBroadcasts, 0u);
  EXPECT_EQ(result.totals.metadataReceptions, 0u);
  EXPECT_GT(result.totals.pieceBroadcasts, 0u);
}

TEST(Engine, MetadataBudgetRespected) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.metadataPerContact = 3;
  params.filesPerContact = 2;
  const auto result = runSimulation(trace, params);
  EXPECT_LE(result.totals.metadataBroadcasts,
            3 * result.totals.contactsProcessed);
  EXPECT_LE(result.totals.pieceBroadcasts,
            2 * result.totals.contactsProcessed);
}

TEST(Engine, ProtocolOrderingOnNus) {
  const auto trace = smallNusTrace();
  const auto mbt = runSimulation(trace, baseParams(ProtocolKind::kMbt));
  const auto mbtQ = runSimulation(trace, baseParams(ProtocolKind::kMbtQ));
  const auto mbtQm = runSimulation(trace, baseParams(ProtocolKind::kMbtQm));
  EXPECT_GE(mbt.delivery.metadataRatio, mbtQ.delivery.metadataRatio);
  EXPECT_GT(mbtQ.delivery.metadataRatio, mbtQm.delivery.metadataRatio);
  EXPECT_GE(mbt.delivery.fileRatio, mbtQm.delivery.fileRatio);
}

TEST(Engine, NoContactsMeansNoNonAccessDelivery) {
  trace::ContactTrace empty("empty", 10);
  // Give it a nonzero span so one publication day happens.
  trace::Contact c;
  c.start = 20 * kHour;
  c.end = 20 * kHour + 60;
  c.members = {NodeId(8), NodeId(9)};
  empty.addContact(c);
  auto params = baseParams(ProtocolKind::kMbt);
  params.explicitAccessNodes = {NodeId(0)};
  const auto result = runSimulation(empty, params);
  // Only nodes 8 and 9 ever meet, and neither has Internet access nor meets
  // an access node, so file delivery among non-access nodes requires luck:
  // with no path from node 0, nothing can arrive.
  EXPECT_EQ(result.delivery.filesDelivered, 0u);
}

TEST(Engine, ExplicitRolesHonored) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.explicitAccessNodes = {NodeId(0), NodeId(1)};
  params.explicitFreeRiders = {NodeId(2)};
  Engine engine(trace, params);
  EXPECT_TRUE(engine.node(NodeId(0)).options().internetAccess);
  EXPECT_TRUE(engine.node(NodeId(1)).options().internetAccess);
  EXPECT_FALSE(engine.node(NodeId(2)).options().internetAccess);
  EXPECT_TRUE(engine.node(NodeId(2)).options().freeRider);
  EXPECT_FALSE(engine.node(NodeId(3)).options().freeRider);
  EXPECT_EQ(engine.accessNodes().size(), 2u);
}

TEST(Engine, AccessFractionSetsRoleCounts) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.internetAccessFraction = 0.25;
  Engine engine(trace, params);
  EXPECT_EQ(engine.accessNodes().size(), 10u);  // 25% of 40
}

TEST(Engine, MetadataNeverDeliveredAfterFile) {
  const auto trace = smallDieselTrace();
  const auto params = baseParams(ProtocolKind::kMbt);
  Engine engine(trace, params);
  engine.run();
  for (const auto& record : engine.metrics().records()) {
    if (record.fileAt.has_value()) {
      ASSERT_TRUE(record.metadataAt.has_value());
      EXPECT_LE(*record.metadataAt, *record.fileAt);
    }
  }
}

TEST(Engine, RunsOnPairwiseTraces) {
  const auto trace = smallDieselTrace();
  const auto result = runSimulation(trace, baseParams(ProtocolKind::kMbt));
  EXPECT_GT(result.totals.contactsProcessed, 0u);
  EXPECT_GT(result.delivery.queries, 0u);
  EXPECT_GT(result.delivery.fileRatio, 0.0);
}

TEST(Engine, MultiPieceFilesDeliverable) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.piecesPerFile = 3;
  params.filesPerContact = 2;  // piece budget 6 per contact
  const auto result = runSimulation(trace, params);
  EXPECT_GT(result.delivery.fileRatio, 0.0);
  EXPECT_DOUBLE_EQ(result.accessDelivery.fileRatio, 1.0);
}

TEST(Engine, TitForTatSchedulingRuns) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.protocol.scheduling = Scheduling::kTitForTat;
  const auto result = runSimulation(trace, params);
  EXPECT_GT(result.delivery.fileRatio, 0.0);
}

TEST(Engine, TftFavorsContributorsOverFreeRiders) {
  // Under TFT, contributors' requests carry credit weight and free-riders'
  // do not. Broadcast overhearing keeps free-riders close (the paper notes
  // they "cannot be completely inhibited"), so the advantage is
  // statistical: aggregate over several seeds on a trace large enough for
  // the classes to be populated, and allow a small noise margin.
  trace::NusParams tp;
  tp.students = 120;
  tp.courses = 24;
  tp.coursesPerStudent = 4;
  tp.days = 8;
  tp.attendanceRate = 0.9;
  double contributor = 0.0, freeRider = 0.0;
  for (int seed = 1; seed <= 3; ++seed) {
    tp.seed = static_cast<std::uint64_t>(seed);
    const auto trace = trace::generateNus(tp);
    auto params = baseParams(ProtocolKind::kMbt);
    params.protocol.scheduling = Scheduling::kTitForTat;
    params.freeRiderFraction = 0.4;
    params.fileTtlDays = 3;
    params.newFilesPerDay = 40;
    params.seed = static_cast<std::uint64_t>(seed) * 77;
    const auto result = runSimulation(trace, params);
    ASSERT_GT(result.freeRiderDelivery.queries, 0u);
    ASSERT_GT(result.contributorDelivery.queries, 0u);
    contributor += result.contributorDelivery.fileRatio;
    freeRider += result.freeRiderDelivery.fileRatio;
  }
  EXPECT_GE(contributor / 3.0, freeRider / 3.0 - 0.01);
}

TEST(Engine, PairwiseDownloadModeRuns) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.downloadMode = DownloadMode::kPairwise;
  const auto pairwise = runSimulation(trace, params);
  EXPECT_GT(pairwise.delivery.fileRatio, 0.0);
  EXPECT_DOUBLE_EQ(pairwise.accessDelivery.fileRatio, 1.0);
}

TEST(Engine, BroadcastBeatsPairwiseOnCliqueTrace) {
  // Section V at system level: with classroom cliques, one broadcast serves
  // the whole room while a pairwise slot serves one node.
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  const auto broadcast = runSimulation(trace, params);
  params.downloadMode = DownloadMode::kPairwise;
  const auto pairwise = runSimulation(trace, params);
  EXPECT_GT(broadcast.delivery.fileRatio, pairwise.delivery.fileRatio);
  // Broadcast also moves more pieces per transmission.
  ASSERT_GT(broadcast.totals.pieceBroadcasts, 0u);
  ASSERT_GT(pairwise.totals.pieceBroadcasts, 0u);
  const double broadcastFanout =
      static_cast<double>(broadcast.totals.pieceReceptions) /
      static_cast<double>(broadcast.totals.pieceBroadcasts);
  const double pairwiseFanout =
      static_cast<double>(pairwise.totals.pieceReceptions) /
      static_cast<double>(pairwise.totals.pieceBroadcasts);
  EXPECT_GT(broadcastFanout, pairwiseFanout);
  EXPECT_NEAR(pairwiseFanout, 1.0, 1e-9);
}

TEST(Engine, CodedDownloadModeRunsAndDecodes) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.downloadMode = DownloadMode::kCoded;
  params.piecesPerFile = 4;
  const auto coded = runSimulation(trace, params);
  EXPECT_GT(coded.delivery.fileRatio, 0.0);
  EXPECT_DOUBLE_EQ(coded.accessDelivery.fileRatio, 1.0);
  // The coded pipeline actually ran: frames were sent, some were
  // innovative, generations decoded, and decoding cost row operations.
  EXPECT_GT(coded.totals.codedBroadcasts, 0u);
  EXPECT_GT(coded.totals.codedInnovativeFrames, 0u);
  EXPECT_GT(coded.totals.generationsDecoded, 0u);
  EXPECT_GT(coded.totals.codedDecodeRowOps, 0u);
}

TEST(Engine, CodedModeDeterministicForSameSeed) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbtQm);
  params.downloadMode = DownloadMode::kCoded;
  params.piecesPerFile = 3;
  params.faults.messageLossRate = 0.2;
  params.recovery.maxRetries = 2;
  const auto a = runSimulation(trace, params);
  const auto b = runSimulation(trace, params);
  expectResultsIdentical(a, b);
  EXPECT_EQ(a.totals.codedBroadcasts, b.totals.codedBroadcasts);
  EXPECT_EQ(a.totals.codedInnovativeFrames, b.totals.codedInnovativeFrames);
  EXPECT_EQ(a.totals.codedRedundantFrames, b.totals.codedRedundantFrames);
  EXPECT_EQ(a.totals.generationsDecoded, b.totals.generationsDecoded);
  EXPECT_EQ(a.totals.codedDecodeRowOps, b.totals.codedDecodeRowOps);
}

TEST(Engine, NonCodedModesUntouchedByCodedKnobs) {
  // The coded RNG stream only forks in coded mode; varying the coded knobs
  // in broadcast mode must not perturb a single counter.
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbtQ);
  const auto before = runSimulation(trace, params);
  params.coded.redundancy = 2.0;
  params.coded.sparsity = 0.1;
  const auto after = runSimulation(trace, params);
  expectResultsIdentical(before, after);
  EXPECT_EQ(after.totals.codedBroadcasts, 0u);
  EXPECT_EQ(after.totals.generationsDecoded, 0u);
}

TEST(Engine, CodedModeBeatsBaselineUnderHeavyLoss) {
  // The redundancy argument for coding: at high loss, extra independent
  // combinations substitute for the selective-repeat feedback loop the
  // baseline lacks (recovery off on both sides).
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.piecesPerFile = 4;
  params.faults.messageLossRate = 0.5;
  const auto plain = runSimulation(trace, params);
  params.downloadMode = DownloadMode::kCoded;
  const auto coded = runSimulation(trace, params);
  EXPECT_GT(coded.delivery.fileRatio, plain.delivery.fileRatio);
}

TEST(Engine, RarestFirstPushOrderRuns) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.pushOrder = PushOrder::kRarestFirst;
  const auto result = runSimulation(trace, params);
  EXPECT_GT(result.delivery.fileRatio, 0.0);
  EXPECT_DOUBLE_EQ(result.accessDelivery.fileRatio, 1.0);
}

TEST(Engine, DurationScaledBudgetsMoveMore) {
  const auto trace = smallNusTrace();  // 2-hour classroom sessions
  auto params = baseParams(ProtocolKind::kMbt);
  const auto fixed = runSimulation(trace, params);
  params.scaleBudgetsWithDuration = true;  // 2 h vs 10 min reference: x12
  const auto scaled = runSimulation(trace, params);
  EXPECT_GT(scaled.totals.pieceBroadcasts, fixed.totals.pieceBroadcasts);
  EXPECT_GE(scaled.delivery.fileRatio, fixed.delivery.fileRatio);
}

TEST(Engine, ObservedPopularityModeRuns) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.useObservedPopularity = true;
  const auto observed = runSimulation(trace, params);
  params.useObservedPopularity = false;
  const auto oracle = runSimulation(trace, params);
  // The estimate is a sample of true interest; delivery stays in a sane
  // band and query generation (ground truth) is unaffected.
  EXPECT_EQ(observed.totals.queriesGenerated, oracle.totals.queriesGenerated);
  EXPECT_GT(observed.delivery.fileRatio, 0.0);
  EXPECT_DOUBLE_EQ(observed.accessDelivery.fileRatio, 1.0);
}

TEST(Engine, ObservedPopularityTracksRequests) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.useObservedPopularity = true;
  Engine engine(trace, params);
  engine.run();
  // After the run, alive files' catalog popularity equals the observed
  // fraction of access nodes that requested them (in [0, 1]).
  for (FileId id : engine.internet().catalog().allFiles()) {
    const FileInfo* info = engine.internet().catalog().find(id);
    ASSERT_NE(info, nullptr);
    EXPECT_GE(info->popularity, 0.0);
    EXPECT_LE(info->popularity, 1.0);
  }
}

TEST(Engine, ForgersPoisonDiscoveryWithoutVerification) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  const auto clean = runSimulation(trace, params);
  params.forgerFraction = 0.25;
  params.verifyMetadata = false;
  const auto poisoned = runSimulation(trace, params);
  EXPECT_GT(poisoned.totals.forgeriesCrafted, 0u);
  EXPECT_GT(poisoned.totals.forgeriesAccepted, 0u);
  // Victims lock onto fake records whose files do not exist, so file
  // delivery suffers.
  EXPECT_LT(poisoned.delivery.fileRatio, clean.delivery.fileRatio);
}

TEST(Engine, VerificationNeutralizesForgers) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.forgerFraction = 0.25;
  params.verifyMetadata = true;
  const auto defended = runSimulation(trace, params);
  EXPECT_GT(defended.totals.forgeriesCrafted, 0u);
  EXPECT_EQ(defended.totals.forgeriesAccepted, 0u);
  EXPECT_GT(defended.totals.forgeriesRejected, 0u);
  // Compare against the same adversary without the defense.
  params.verifyMetadata = false;
  const auto poisoned = runSimulation(trace, params);
  EXPECT_GT(defended.delivery.fileRatio, poisoned.delivery.fileRatio);
}

TEST(Engine, RepeatForgersGetDistrusted) {
  const auto trace = smallNusTrace();
  auto params = baseParams(ProtocolKind::kMbt);
  params.forgerFraction = 0.25;
  params.verifyMetadata = true;
  Engine engine(trace, params);
  engine.run();
  // Some honest node must have blacklisted some forger after repeat
  // offences (threshold 2).
  bool someDistrust = false;
  for (std::uint32_t i = 0; i < engine.nodeCount(); ++i) {
    const Node& node = engine.node(NodeId(i));
    if (node.options().forger) continue;
    for (NodeId suspect : node.distrustedPeers()) {
      EXPECT_TRUE(engine.node(suspect).options().forger)
          << "honest node " << suspect.value << " wrongly distrusted";
      someDistrust = true;
    }
  }
  EXPECT_TRUE(someDistrust);
}

// Every node holding a file id holds the same record object, and for a
// genuine (catalog) id that object is the catalog's own. Returns the object
// per held file id.
std::map<FileId, const Metadata*> expectOneRecordObjectPerFile(
    const Engine& engine) {
  std::map<FileId, const Metadata*> objects;
  for (std::uint32_t i = 0; i < engine.nodeCount(); ++i) {
    for (const Metadata* md : engine.node(NodeId(i)).metadata().all()) {
      const auto [it, inserted] = objects.emplace(md->file, md);
      EXPECT_EQ(it->second, md) << "node " << i << " holds its own copy of "
                                << md->file.value;
    }
  }
  const FileCatalog& catalog = engine.internet().catalog();
  for (const auto& [file, md] : objects) {
    if (catalog.find(file) != nullptr) {
      EXPECT_EQ(md, &catalog.metadataFor(file)) << file.value;
    }
  }
  return objects;
}

EngineParams forgedRunParams() {
  auto params = baseParams(ProtocolKind::kMbt);
  params.forgerFraction = 0.25;
  params.verifyMetadata = false;
  return params;
}

std::size_t countForged(const std::map<FileId, const Metadata*>& objects,
                        const Engine& engine) {
  return static_cast<std::size_t>(
      std::count_if(objects.begin(), objects.end(), [&](const auto& kv) {
        return engine.internet().catalog().find(kv.first) == nullptr;
      }));
}

TEST(Engine, HoldersShareOneRecordObjectPerFile) {
  const auto trace = smallNusTrace();
  Engine engine(trace, forgedRunParams());
  engine.run();
  const auto objects = expectOneRecordObjectPerFile(engine);
  // Both kinds are exercised: catalog records and forgers' fakes.
  EXPECT_GT(objects.size(), countForged(objects, engine));
  EXPECT_GT(countForged(objects, engine), 0u);
}

TEST(Engine, RestoredHoldersShareOneRecordObjectPerFile) {
  const auto trace = smallNusTrace();
  const auto params = forgedRunParams();
  Engine original(trace, params);
  original.runUntil(trace.endTime() / 2);
  const std::string path = testing::TempDir() + "/engine_shared_records.ckpt";
  original.saveCheckpoint(path);
  const auto before = expectOneRecordObjectPerFile(original);

  Engine restored(trace, params);
  restored.restoreCheckpoint(path);
  const auto after = expectOneRecordObjectPerFile(restored);
  // As many record objects as the run it resumes, holding equal records.
  ASSERT_EQ(after.size(), before.size());
  EXPECT_GT(countForged(after, restored), 0u);
  for (const auto& [file, md] : before) {
    ASSERT_TRUE(after.contains(file)) << file.value;
    EXPECT_EQ(*after.at(file), *md) << file.value;
  }
}

// Every node's query for a file shares one object, holding the file's
// canonical query, and every stored proxied query is that object too.
// Returns the objects by target file.
std::map<FileId, const FileQuery*> expectOneQueryObjectPerFile(
    const Engine& engine) {
  std::map<FileId, const FileQuery*> objects;
  std::size_t states = 0;
  for (std::uint32_t i = 0; i < engine.nodeCount(); ++i) {
    for (const Node::QueryState& qs : engine.node(NodeId(i)).queryStates()) {
      ++states;
      const auto [it, inserted] =
          objects.emplace(qs.query->target, qs.query.get());
      EXPECT_EQ(it->second, qs.query.get())
          << "node " << i << " holds its own query for "
          << qs.query->target.value;
    }
  }
  const FileCatalog& catalog = engine.internet().catalog();
  for (const auto& [file, query] : objects) {
    const FileInfo* info = catalog.find(file);
    EXPECT_NE(info, nullptr) << file.value;
    if (info == nullptr) continue;
    EXPECT_EQ(query->text, canonicalQueryText(*info)) << file.value;
    EXPECT_EQ(query->tokens, keywordTokens(query->text)) << file.value;
    EXPECT_EQ(query->issuedAt, info->publishedAt) << file.value;
    EXPECT_EQ(query->ttl, info->ttl) << file.value;
  }
  // Sharing is exercised: files have many askers.
  EXPECT_GT(states, 2 * objects.size());
  std::size_t proxied = 0;
  for (std::uint32_t i = 0; i < engine.nodeCount(); ++i) {
    for (const FileQuery* query :
         engine.node(NodeId(i)).proxiedQueries(engine.now())) {
      ++proxied;
      const auto it = objects.find(query->target);
      EXPECT_TRUE(it != objects.end() && it->second == query)
          << "node " << i << " stores its own copy of proxied query \""
          << query->text << "\"";
    }
  }
  EXPECT_GT(proxied, 0u);
  return objects;
}

TEST(Engine, QueriesShareOneObjectPerFile) {
  const auto trace = smallNusTrace();
  Engine engine(trace, baseParams(ProtocolKind::kMbt));
  engine.run();
  EXPECT_FALSE(expectOneQueryObjectPerFile(engine).empty());
}

TEST(Engine, RestoredQueriesShareOneObjectPerFile) {
  const auto trace = smallNusTrace();
  const auto params = baseParams(ProtocolKind::kMbt);
  Engine original(trace, params);
  original.runUntil(trace.endTime() / 2);
  const std::string path = testing::TempDir() + "/engine_shared_queries.ckpt";
  original.saveCheckpoint(path);
  const auto before = expectOneQueryObjectPerFile(original);

  Engine restored(trace, params);
  restored.restoreCheckpoint(path);
  const auto after = expectOneQueryObjectPerFile(restored);
  // As many query objects as the run it resumes, asking the same things.
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [file, query] : before) {
    ASSERT_TRUE(after.contains(file)) << file.value;
    EXPECT_EQ(after.at(file)->text, query->text) << file.value;
    EXPECT_EQ(after.at(file)->issuedAt, query->issuedAt) << file.value;
    EXPECT_EQ(after.at(file)->ttl, query->ttl) << file.value;
  }
  expectResultsIdentical(restored.finish(), original.finish());
}

TEST(Engine, RunTwiceThrows) {
  // Regression: a second run()/finish() used to be a debug-only assert (a
  // silent no-op in release builds); it must throw in every build type.
  const auto trace = smallNusTrace();
  Engine engine(trace, baseParams(ProtocolKind::kMbt));
  engine.run();
  EXPECT_TRUE(engine.finished());
  EXPECT_THROW(engine.run(), std::logic_error);
  EXPECT_THROW(engine.finish(), std::logic_error);
  EXPECT_THROW(engine.step(), std::logic_error);
  EXPECT_THROW(engine.runUntil(kTimeInfinity), std::logic_error);
}

TEST(Engine, SteppedExecutionMatchesRun) {
  // The three drive modes — run(), runUntil slices + finish(), step() loop —
  // must be byte-identical for every protocol and both trace generators:
  // the schedule is built once and all randomness lives inside the event
  // callbacks, so slicing cannot perturb anything.
  for (const ProtocolKind kind :
       {ProtocolKind::kMbt, ProtocolKind::kMbtQ, ProtocolKind::kMbtQm}) {
    for (const bool diesel : {false, true}) {
      const auto trace = diesel ? smallDieselTrace() : smallNusTrace();
      auto params = baseParams(kind);
      if (diesel) params.frequentContactPeriod = 3 * kDay;
      const EngineResult whole = runSimulation(trace, params);

      Engine sliced(trace, params);
      for (SimTime t = kDay; t < sliced.endTime(); t += kDay) {
        sliced.runUntil(t);
        EXPECT_LE(sliced.now(), t);
      }
      expectResultsIdentical(whole, sliced.finish());

      Engine stepped(trace, params);
      std::size_t steps = 0;
      while (stepped.step()) ++steps;
      EXPECT_GT(steps, 0u);
      EXPECT_EQ(stepped.pendingEvents(), 0u);
      expectResultsIdentical(whole, stepped.finish());
    }
  }
}

TEST(Engine, CurrentResultIsMonotoneSnapshot) {
  const auto trace = smallNusTrace();
  Engine engine(trace, baseParams(ProtocolKind::kMbtQm));
  std::uint64_t lastContacts = 0;
  for (SimTime t = kDay; t < engine.endTime(); t += kDay) {
    engine.runUntil(t);
    const EngineResult snap = engine.currentResult();
    EXPECT_GE(snap.totals.contactsProcessed, lastContacts);
    lastContacts = snap.totals.contactsProcessed;
  }
  const EngineResult fin = engine.finish();
  EXPECT_GE(fin.totals.contactsProcessed, lastContacts);
  // currentResult stays callable after finish and equals the final result.
  expectResultsIdentical(fin, engine.currentResult());
}

// Property sweep: delivery ratios are valid probabilities under any
// parameter combination.
struct SweepCase {
  ProtocolKind kind;
  int filesPerDay;
  int ttlDays;
};

class EngineParamSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineParamSweep, RatiosAreValidProbabilities) {
  const SweepCase c = GetParam();
  const auto trace = smallNusTrace();
  auto params = baseParams(c.kind);
  params.newFilesPerDay = c.filesPerDay;
  params.fileTtlDays = c.ttlDays;
  const auto result = runSimulation(trace, params);
  for (const auto& report :
       {result.delivery, result.accessDelivery, result.contributorDelivery,
        result.freeRiderDelivery}) {
    EXPECT_GE(report.metadataRatio, 0.0);
    EXPECT_LE(report.metadataRatio, 1.0);
    EXPECT_GE(report.fileRatio, 0.0);
    EXPECT_LE(report.fileRatio, 1.0);
    // File delivery implies metadata delivery (the file subsumes it).
    EXPECT_LE(report.fileRatio, report.metadataRatio + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineParamSweep,
    ::testing::Values(SweepCase{ProtocolKind::kMbt, 10, 1},
                      SweepCase{ProtocolKind::kMbt, 40, 3},
                      SweepCase{ProtocolKind::kMbtQ, 10, 2},
                      SweepCase{ProtocolKind::kMbtQ, 40, 1},
                      SweepCase{ProtocolKind::kMbtQm, 10, 3},
                      SweepCase{ProtocolKind::kMbtQm, 40, 2}));

}  // namespace
}  // namespace hdtn::core
