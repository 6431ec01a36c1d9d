// Microbenchmarks of the library's hot paths (google-benchmark): SHA-1
// hashing, RLNC decoding, query matching, the
// discovery / download planners at contact-window scale, MBT's hello
// exchange and access sync at class-clique scale, and one checkpoint save.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/access_sync.hpp"
#include "src/core/coding.hpp"
#include "src/core/discovery.hpp"
#include "src/core/download.hpp"
#include "src/core/download_planner.hpp"
#include "src/core/engine.hpp"
#include "src/core/file_catalog.hpp"
#include "src/core/internet.hpp"
#include "src/core/node.hpp"
#include "src/core/protocol.hpp"
#include "src/core/query.hpp"
#include "src/core/scenario.hpp"
#include "src/obs/events.hpp"
#include "src/trace/nus.hpp"
#include "src/util/bloom.hpp"
#include "src/util/random.hpp"
#include "src/util/sha1.hpp"

namespace {

using namespace hdtn;
using namespace hdtn::core;

void BM_Sha1_256KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(256 * 1024);
  Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Sha1_256KiB);

// Folds a fixed seeded stream of coded frames into a fresh decoder: k + k/4
// frames at the engine's default sparsity 0.5, so the stream reaches full
// rank and ends with redundant frames. Arguments: k, payload bytes (0 is
// the engine's coefficient-only decoder). Items are frames folded.
void BM_DecoderFold(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto payloadBytes = static_cast<std::uint32_t>(state.range(1));
  Rng rng(17);
  std::vector<std::vector<std::uint8_t>> pieces(
      k, std::vector<std::uint8_t>(payloadBytes));
  for (auto& piece : pieces) {
    for (auto& byte : piece) byte = static_cast<std::uint8_t>(rng());
  }
  const coding::CodedEncoder encoder(std::move(pieces));
  std::vector<coding::CodedEncoder::Frame> frames;
  for (std::uint32_t f = 0; f < k + k / 4; ++f) {
    frames.push_back(encoder.frame(rng(), 0.5));
  }
  for (auto _ : state) {
    coding::GenerationDecoder decoder(k, payloadBytes);
    for (const auto& frame : frames) {
      decoder.addFrame(frame.coefficients, frame.payload);
    }
    benchmark::DoNotOptimize(decoder.rank());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_DecoderFold)
    ->Args({4, 0})
    ->Args({4, 1024})
    ->Args({16, 0})
    ->Args({16, 1024})
    ->Args({64, 0})
    ->Args({64, 1024});

InternetServices makeCatalog(int files) {
  InternetServices internet;
  SyntheticBatchParams batch;
  batch.count = files;
  batch.publishedAt = 0;
  batch.ttl = 3 * kDay;
  batch.lambda = files / 2.0;
  Rng rng(7);
  publishSyntheticBatch(internet, batch, rng);
  return internet;
}

void BM_QueryMatch(benchmark::State& state) {
  InternetServices internet = makeCatalog(200);
  const Metadata& md = internet.catalog().metadataFor(FileId(100));
  const std::string query =
      canonicalQueryText(*internet.catalog().find(FileId(100)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(queryMatches(query, md));
  }
}
BENCHMARK(BM_QueryMatch);

// Shared fixture for the discovery-planning benchmarks: each member holds
// the catalog's own record objects and asks one catalog query object, as
// engine members do, and one scratch serves every plan.
struct DiscoveryFixture {
  InternetServices internet;
  std::vector<SharedQuery> fileQueries;  ///< one per file, as the engine
  std::vector<MetadataStore> stores;
  std::vector<CreditLedger> ledgers;
  std::vector<std::vector<const FileQuery*>> queryLists;
  std::vector<DiscoveryPeer> peers;
  DiscoveryScratch scratch;

  explicit DiscoveryFixture(std::size_t members)
      : internet(makeCatalog(150)),
        stores(members),
        ledgers(members),
        queryLists(members) {
    const FileCatalog& catalog = internet.catalog();
    for (const FileId f : catalog.allFiles()) {
      const FileInfo& info = *catalog.find(f);
      fileQueries.push_back(std::make_shared<const FileQuery>(
          canonicalQueryText(info), f, info.publishedAt, info.ttl));
    }
    Rng rng(9);
    for (std::size_t i = 0; i < members; ++i) {
      for (FileId f : catalog.allFiles()) {
        if (rng.chance(0.4)) stores[i].add(catalog.sharedMetadataFor(f));
      }
      DiscoveryPeer peer;
      peer.id = NodeId(static_cast<std::uint32_t>(i));
      peer.store = &stores[i];
      queryLists[i] = {fileQueries[rng.pickIndex(150)].get()};
      peer.queryObjects = &queryLists[i];
      peer.credits = &ledgers[i];
      for (std::size_t p = 0; p < members; ++p) {
        ledgers[i].addCredit(NodeId(static_cast<std::uint32_t>(p)),
                             rng.uniform(0.0, 10.0));
      }
      peers.push_back(std::move(peer));
    }
  }

  [[nodiscard]] std::vector<MetadataBroadcast> plan(Scheduling scheduling) {
    return planDiscovery(peers, 10, scheduling, nullptr, 0, &scratch,
                         &internet.catalog());
  }
};

void BM_PlanDiscovery(benchmark::State& state) {
  DiscoveryFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.plan(Scheduling::kCooperative));
  }
}
BENCHMARK(BM_PlanDiscovery)->Arg(2)->Arg(8)->Arg(20);

void BM_PlanDiscoveryTft(benchmark::State& state) {
  DiscoveryFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.plan(Scheduling::kTitForTat));
  }
}
BENCHMARK(BM_PlanDiscoveryTft)->Arg(2)->Arg(8)->Arg(20);

// One access node's server searches at a publish instant: 40 files a day
// with a 3-day TTL over five days, so 120 of the 200 files are alive, and
// 12 query objects of alive files (3 of its own and 9 proxied, the MBT
// access member's share in the clique benchmarks below). Items are
// searches.
void BM_ServerSearch(benchmark::State& state) {
  InternetServices internet;
  Rng rng(5);
  SyntheticBatchParams batch;
  batch.count = 40;
  batch.ttl = 3 * kDay;
  batch.lambda = 20.0;
  for (int day = 0; day < 5; ++day) {
    batch.publishedAt = day * kDay + kDailyPublishHour;
    publishSyntheticBatch(internet, batch, rng);
  }
  const SimTime now = 4 * kDay + kDailyPublishHour;
  const FileCatalog& catalog = internet.catalog();
  const std::vector<FileId> alive = catalog.aliveFiles(now);
  std::vector<SharedQuery> queries;
  for (int q = 0; q < 12; ++q) {
    const FileInfo& info = *catalog.find(alive[rng.pickIndex(alive.size())]);
    queries.push_back(std::make_shared<const FileQuery>(
        canonicalQueryText(info), info.id, info.publishedAt, info.ttl));
  }
  for (auto _ : state) {
    for (const SharedQuery& query : queries) {
      benchmark::DoNotOptimize(internet.search(*query, now));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
  state.counters["alive"] = static_cast<double>(alive.size());
}
BENCHMARK(BM_ServerSearch);

void BM_MetadataStoreViews(benchmark::State& state) {
  InternetServices internet = makeCatalog(200);
  MetadataStore store;
  for (FileId f : internet.catalog().allFiles()) {
    store.add(internet.catalog().metadataFor(f));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.all());
    benchmark::DoNotOptimize(store.byPopularity());
  }
}
BENCHMARK(BM_MetadataStoreViews);

// Plans one cooperative broadcast download with stores sized like day 3 of
// the city-sharded workload: 40 live files of one piece each, every member
// holding about a quarter of them (city-sharded ends day 3 at 9.2 piece
// files per node) and half the members wanting one file they lack, with
// that workload's budget of two pieces. One scratch serves every plan, as
// in the engine. Argument: clique members.
void BM_DownloadPlan(benchmark::State& state) {
  const auto members = static_cast<std::size_t>(state.range(0));
  InternetServices internet = makeCatalog(40);
  Rng rng(11);
  std::vector<PieceStore> stores(members);
  std::vector<CreditLedger> ledgers(members);
  // DownloadPeer::wanted is a view; this vector owns the backing storage.
  std::vector<std::vector<FileId>> wantedStorage(members);
  std::vector<DownloadPeer> peers;
  for (std::size_t i = 0; i < members; ++i) {
    for (FileId f : internet.catalog().allFiles()) {
      if (!rng.chance(0.25)) continue;
      stores[i].registerFile(f, 1);
      stores[i].addPiece(f, 0);
    }
    const FileId want(static_cast<std::uint32_t>(rng.pickIndex(40)));
    if (rng.chance(0.5) && !stores[i].hasPiece(want, 0)) {
      wantedStorage[i] = {want};
    }
    DownloadPeer peer;
    peer.id = NodeId(static_cast<std::uint32_t>(i));
    peer.pieces = &stores[i];
    peer.wanted = wantedStorage[i];
    peer.credits = &ledgers[i];
    peers.push_back(std::move(peer));
  }
  const PopularityFn popularityOf = [&internet](FileId f) {
    return internet.catalog().find(f)->popularity;
  };
  DownloadScratch scratch;
  DownloadRequest request;
  request.peers = peers;
  request.popularityOf = &popularityOf;
  request.budgetPieces = 2;
  request.scratch = &scratch;
  const DownloadPlanner& planner =
      *downloadModeInfo(DownloadMode::kBroadcast, Scheduling::kCooperative)
           .planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(request));
  }
}
BENCHMARK(BM_DownloadPlan)->Arg(2)->Arg(8)->Arg(70);

// A nus-mbt class clique on day 3: 50 members over 100 alive files. Each
// member has three frequent contacts and three queries of its own still
// searching, and wants 80 of the files on behalf of peers; one MBT hello
// exchange in set-up stores its frequent contacts' queries (member 0 holds
// 9 distinct proxied texts) and spreads the wants (100 fresh ones each).
// Member 0 has Internet access.
struct CliqueFixture {
  static constexpr std::uint32_t kMembers = 50;
  static constexpr SimTime kPublishAt = 2 * kDay + kDailyPublishHour;
  static constexpr SimTime kNow = kPublishAt + 3 * kHour;

  InternetServices internet = makeCatalog(100);
  std::vector<Node> nodes;
  std::vector<Node*> members;

  CliqueFixture() {
    Rng rng(11);
    const FileCatalog& catalog = internet.catalog();
    std::vector<SharedQuery> queries;
    std::vector<Uri> uris;
    for (const FileId file : catalog.allFiles()) {
      const FileInfo& info = *catalog.find(file);
      queries.push_back(std::make_shared<const FileQuery>(
          canonicalQueryText(info), file, info.publishedAt, info.ttl));
      uris.push_back(info.uri);
    }
    nodes.reserve(kMembers);
    for (std::uint32_t i = 0; i < kMembers; ++i) {
      Node& node = nodes.emplace_back(
          NodeId(i), NodeOptions{.internetAccess = i == 0});
      node.setCatalog(&catalog);
      node.setCooperativeStateTtl(3 * kDay);
      node.setFrequentContacts({NodeId((i + 1) % kMembers),
                                NodeId((i + 2) % kMembers),
                                NodeId((i + 3) % kMembers)});
      for (std::uint32_t q = 0; q < 3; ++q) {
        node.addQuery(QueryId(3 * i + q), queries[rng.pickIndex(100)]);
      }
      rng.shuffle(uris);
      node.storePeerWants({uris.begin(), uris.begin() + 80},
                          kNow - rng.uniformInt(0, kDay));
      members.push_back(&node);
    }
    ContactViews views;
    exchangeHellos(members, ProtocolConfig{.kind = ProtocolKind::kMbt},
                   catalog, kNow, views);
  }
};

// One MBT hello exchange over the clique, as at every contact. Items are
// members.
void BM_HelloExchange(benchmark::State& state) {
  CliqueFixture fx;
  ContactViews views;
  const ProtocolConfig mbt{.kind = ProtocolKind::kMbt};
  for (auto _ : state) {
    views.clear();
    exchangeHellos(fx.members, mbt, fx.internet.catalog(),
                   CliqueFixture::kNow, views);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          CliqueFixture::kMembers);
}
BENCHMARK(BM_HelloExchange);

// Stores server records and whole files at the node, as the engine does
// without its verification and metrics.
class BenchSyncHost final : public AccessSync::Host {
 public:
  explicit BenchSyncHost(const FileCatalog& catalog) : catalog_(catalog) {}
  void storeMetadata(Node& node, const SharedMetadata& md,
                     SimTime now) override {
    node.acceptMetadata(md, now);
  }
  void gotMetadata(const Node&, FileId, SimTime) override {}
  void deliverWholeFile(Node& node, FileId file, SimTime now) override {
    const FileInfo* info = catalog_.find(file);
    if (info == nullptr || !info->alive(now)) return;
    node.pieces().registerFile(file, info->pieceCount());
    node.pieces().setPriority(file, info->popularity);
    for (std::uint32_t p = 0; p < info->pieceCount(); ++p) {
      node.acceptPiece(file, p, info->pieceCount(), now);
    }
  }

 private:
  const FileCatalog& catalog_;
};

// The access member syncs as it joins a contact, after the epoch's first
// sync at the publish instant: its searches, carry stock and peer wants
// were all visited already.
void BM_AccessSync(benchmark::State& state) {
  CliqueFixture fx;
  AccessSync sync(fx.internet, {.searchProxiedQueries = true,
                                .takeCarryStock = true,
                                .fetchPeerWants = true});
  sync.beginEpoch(CliqueFixture::kPublishAt);
  BenchSyncHost host(fx.internet.catalog());
  ContactViews views;
  for (auto _ : state) {
    views.clear();
    sync.sync(fx.nodes[0], CliqueFixture::kNow, views, host);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AccessSync);

void BM_BloomFilterInsertQuery(benchmark::State& state) {
  BloomFilter filter = BloomFilter::forCapacity(10000, 0.01);
  Rng rng(3);
  std::uint64_t key = 0;
  for (auto _ : state) {
    filter.insert(key);
    benchmark::DoNotOptimize(filter.mayContain(key ^ 1));
    ++key;
  }
}
BENCHMARK(BM_BloomFilterInsertQuery);

void BM_EngineNusRun(benchmark::State& state) {
  trace::NusParams tp;
  tp.students = 80;
  tp.courses = 16;
  tp.coursesPerStudent = 3;
  tp.days = 6;
  tp.seed = 2;
  const auto trace = trace::generateNus(tp);
  for (auto _ : state) {
    EngineParams params;
    params.protocol.kind = ProtocolKind::kMbt;
    params.frequentContactPeriod = kDay;
    params.seed = 5;
    benchmark::DoNotOptimize(runSimulation(trace, params));
  }
}
BENCHMARK(BM_EngineNusRun)->Unit(benchmark::kMillisecond);

// Same run with a counting observer attached: the spread against
// BM_EngineNusRun is the full cost of the event layer (construction of every
// SimEvent plus a virtual call per event). BM_EngineNusRun itself is the
// no-observer baseline — the detached hot path must not regress.
void BM_EngineNusRunWithObserver(benchmark::State& state) {
  trace::NusParams tp;
  tp.students = 80;
  tp.courses = 16;
  tp.coursesPerStudent = 3;
  tp.days = 6;
  tp.seed = 2;
  const auto trace = trace::generateNus(tp);
  for (auto _ : state) {
    EngineParams params;
    params.protocol.kind = ProtocolKind::kMbt;
    params.frequentContactPeriod = kDay;
    params.seed = 5;
    Engine engine(trace, params);
    obs::CountingObserver counter;
    engine.setObserver(&counter);
    benchmark::DoNotOptimize(engine.run());
    benchmark::DoNotOptimize(counter.total());
  }
}
BENCHMARK(BM_EngineNusRunWithObserver)->Unit(benchmark::kMillisecond);

// One checkpoint save of the service-grid sweep's first job (NUS 100
// students, 20 courses, 7 days, MBT, access 0.1, seed 1) at its last 6 h
// boundary: encoding, SHA-1, and the temp-file write and rename. The
// counter is the payload's bytes (the file less its 40-byte header).
void BM_CheckpointSave(benchmark::State& state) {
  std::istringstream text(
      "trace-family = nus\ntrace-students = 100\ntrace-courses = 20\n"
      "trace-days = 7\ntrace-seed = 1\nprotocol = mbt\naccess = 0.1\n"
      "seed = 1\n");
  std::vector<std::string> errors;
  const std::optional<Scenario> scenario = Scenario::parse(text, &errors);
  std::string error;
  const std::optional<trace::ContactTrace> trace =
      scenario->trace.build(&error);
  Engine engine(*trace, scenario->params);
  constexpr Duration kEvery = 6 * kHour;
  engine.runUntil((engine.endTime() - 1) / kEvery * kEvery);
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_micro_save.ckpt")
          .string();
  for (auto _ : state) engine.saveCheckpoint(path);
  state.counters["payload_bytes"] =
      static_cast<double>(std::filesystem::file_size(path) - 40);
  std::filesystem::remove(path);
}
BENCHMARK(BM_CheckpointSave)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main so CI can ask for machine-readable output with a stable flag:
// `bench_micro --json` is rewritten to google-benchmark's
// `--benchmark_format=json` before Initialize sees the arguments.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  for (auto& arg : args) {
    if (arg == "--json") arg = "--benchmark_format=json";
  }
  std::vector<char*> rewritten;
  rewritten.reserve(args.size());
  for (auto& arg : args) rewritten.push_back(arg.data());
  int rewrittenArgc = static_cast<int>(rewritten.size());
  benchmark::Initialize(&rewrittenArgc, rewritten.data());
  if (benchmark::ReportUnrecognizedArguments(rewrittenArgc,
                                             rewritten.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
