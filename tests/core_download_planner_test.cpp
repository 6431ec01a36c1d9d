// Golden-file lock on the download planners: the cooperative, tit-for-tat,
// popularity-only, and pairwise plans over fixed randomized fixtures are
// dumped to text and compared byte-for-byte against checked-in goldens.
// The goldens were captured from the pre-DownloadPlanner free functions, so
// any refactoring of the planner internals (the pluggable-planner registry,
// the span-backed requester lists) must reproduce the exact same plans.
//
// Regenerate after an INTENTIONAL behaviour change with:
//   HDTN_UPDATE_GOLDEN=1 ./build/tests/hdtn_tests
//       --gtest_filter='DownloadPlanGolden.*'   (one command line)
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/credit.hpp"
#include "src/core/download.hpp"
#include "src/core/download_planner.hpp"
#include "src/core/piece_store.hpp"
#include "src/util/random.hpp"

namespace hdtn::core {
namespace {

// Deterministic planner fixture. `wantedStorage` is populated completely
// before any peer views it, so DownloadPeer::wanted can be either an owning
// vector (legacy) or a span over this storage without the test changing.
struct Fixture {
  std::vector<PieceStore> stores;
  std::vector<CreditLedger> ledgers;
  std::vector<std::vector<FileId>> wantedStorage;
  std::vector<DownloadPeer> peers;
  std::map<FileId, double> popularity;

  Fixture(std::uint64_t seed, std::size_t members, int files,
          std::uint32_t maxPieces) {
    Rng rng(seed);
    std::vector<std::uint32_t> pieceCounts;
    for (int f = 0; f < files; ++f) {
      pieceCounts.push_back(
          1 + static_cast<std::uint32_t>(rng.pickIndex(maxPieces)));
      popularity[FileId(static_cast<std::uint32_t>(f))] = rng.uniform();
    }
    stores.resize(members);
    ledgers.resize(members);
    wantedStorage.resize(members);
    for (std::size_t i = 0; i < members; ++i) {
      for (int f = 0; f < files; ++f) {
        const FileId file(static_cast<std::uint32_t>(f));
        if (rng.chance(0.5)) {
          stores[i].registerFile(file, pieceCounts[f]);
          for (std::uint32_t p = 0; p < pieceCounts[f]; ++p) {
            if (rng.chance(0.6)) stores[i].addPiece(file, p);
          }
        }
        if (rng.chance(0.35)) wantedStorage[i].push_back(file);
      }
      for (std::size_t p = 0; p < members; ++p) {
        ledgers[i].addCredit(NodeId(static_cast<std::uint32_t>(p)),
                             rng.uniform(0.0, 5.0));
      }
    }
    for (std::size_t i = 0; i < members; ++i) {
      DownloadPeer peer;
      peer.id = NodeId(static_cast<std::uint32_t>(i));
      peer.pieces = &stores[i];
      peer.wanted = wantedStorage[i];
      peer.credits = &ledgers[i];
      peer.contributes = rng.chance(0.85);
      peers.push_back(std::move(peer));
    }
  }

  [[nodiscard]] PopularityFn popularityFn() const {
    return [this](FileId f) {
      const auto it = popularity.find(f);
      return it == popularity.end() ? 0.0 : it->second;
    };
  }
};

// Plan dumps are templated on the plan type so the same test covers the
// legacy vector-of-broadcasts and the arena-backed DownloadPlan.
template <typename Plan>
std::string dumpBroadcastPlan(const Plan& plan) {
  std::ostringstream out;
  for (const PieceBroadcast& b : plan) {
    out << "broadcast sender=" << b.sender.value << " file=" << b.file.value
        << " piece=" << b.piece << " phase=" << b.phase << " requesters=[";
    bool first = true;
    for (NodeId r : b.requesters) {
      if (!first) out << ",";
      out << r.value;
      first = false;
    }
    out << "]\n";
  }
  return out.str();
}

template <typename Plan>
std::string dumpTransferPlan(const Plan& plan) {
  std::ostringstream out;
  for (const PieceTransfer& t : plan) {
    out << "transfer sender=" << t.sender.value
        << " receiver=" << t.receiver.value << " file=" << t.file.value
        << " piece=" << t.piece << " requested=" << (t.requested ? 1 : 0)
        << "\n";
  }
  return out.str();
}

struct FixtureSpec {
  std::uint64_t seed;
  std::size_t members;
  int files;
  std::uint32_t maxPieces;
};

constexpr FixtureSpec kFixtures[] = {
    {101, 5, 8, 3}, {202, 8, 12, 1}, {303, 3, 5, 4}, {404, 9, 20, 2}};
constexpr int kBudgets[] = {1, 5, 32};

std::string goldenPath(const std::string& name) {
  return std::string(HDTN_GOLDEN_DIR) + "/" + name + ".txt";
}

void compareOrUpdate(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  if (std::getenv("HDTN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with HDTN_UPDATE_GOLDEN=1 to create)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "plan drifted from golden " << path;
}

// The fixture's plan through the mode registry, as the engine asks for it.
DownloadPlan planFor(const Fixture& fx, int budget, DownloadMode mode,
                     Scheduling scheduling, PushOrder order) {
  const PopularityFn popularityOf = fx.popularityFn();
  DownloadRequest request;
  request.peers = fx.peers;
  request.popularityOf = &popularityOf;
  request.budgetPieces = budget;
  request.pushOrder = order;
  return downloadModeInfo(mode, scheduling).planner->plan(request);
}

std::string broadcastGolden(Scheduling scheduling, PushOrder order) {
  std::ostringstream out;
  for (const FixtureSpec& spec : kFixtures) {
    for (int budget : kBudgets) {
      Fixture fx(spec.seed, spec.members, spec.files, spec.maxPieces);
      out << "# fixture seed=" << spec.seed << " budget=" << budget << "\n";
      out << dumpBroadcastPlan(planFor(fx, budget, DownloadMode::kBroadcast,
                                       scheduling, order));
    }
  }
  return out.str();
}

TEST(DownloadPlanGolden, Cooperative) {
  compareOrUpdate("download_coop",
                  broadcastGolden(Scheduling::kCooperative,
                                  PushOrder::kPopularity));
}

TEST(DownloadPlanGolden, CooperativeRarestFirst) {
  compareOrUpdate("download_coop_rarest",
                  broadcastGolden(Scheduling::kCooperative,
                                  PushOrder::kRarestFirst));
}

TEST(DownloadPlanGolden, TitForTat) {
  compareOrUpdate("download_tft",
                  broadcastGolden(Scheduling::kTitForTat,
                                  PushOrder::kPopularity));
}

TEST(DownloadPlanGolden, PopularityOnly) {
  compareOrUpdate("download_popularity",
                  broadcastGolden(Scheduling::kPopularityOnly,
                                  PushOrder::kPopularity));
}

TEST(DownloadPlanGolden, Pairwise) {
  std::ostringstream out;
  for (const FixtureSpec& spec : kFixtures) {
    for (int budget : kBudgets) {
      Fixture fx(spec.seed, spec.members, spec.files, spec.maxPieces);
      out << "# fixture seed=" << spec.seed << " budget=" << budget << "\n";
      out << dumpTransferPlan(planFor(fx, budget, DownloadMode::kPairwise,
                                      Scheduling::kCooperative,
                                      PushOrder::kPopularity)
                                  .transfers);
    }
  }
  compareOrUpdate("download_pairwise", out.str());
}

}  // namespace
}  // namespace hdtn::core
