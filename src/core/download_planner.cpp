#include "src/core/download_planner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>

#include "src/core/planner_arrays.hpp"
#include "src/obs/events.hpp"
#include "src/util/random.hpp"

namespace hdtn::core {
namespace {

using Candidate = DownloadScratch::Candidate;
using HeldPiece = DownloadScratch::HeldPiece;
using Want = DownloadScratch::Want;

// Collects every piece held by a contributing member and missing at some
// member, in (file, piece) order, into `s.candidates`. Each store lists its
// held pieces in (file, piece) order, so the clique's pieces are one merge
// of the members' runs, and a (file, piece) group yields its holder rows
// without a store lookup. The want lists are sorted into (file, member)
// order once per contact; popularity and the want row are looked up once
// per file.
void collectCandidates(const DownloadRequest& request, DownloadScratch& s) {
  const std::span<const DownloadPeer> peers = request.peers;
  const std::size_t words = (peers.size() + 63) / 64;
  s.rowWords = words;
  s.held.clear();
  s.runs.assign(1, 0);
  for (std::uint32_t i = 0; i < peers.size(); ++i) {
    if (peers[i].pieces == nullptr) continue;
    peers[i].pieces->forEachHeldPiece([&](FileId file, std::uint32_t piece) {
      s.held.push_back({file, piece, i});
    });
    if (s.held.size() != s.runs.back()) s.runs.push_back(s.held.size());
  }
  mergeSortedRuns(s.held, s.runs, s.mergeBuffer,
                  [](const HeldPiece& a, const HeldPiece& b) {
                    if (a.file != b.file) return a.file < b.file;
                    if (a.piece != b.piece) return a.piece < b.piece;
                    return a.member < b.member;
                  });
  s.wants.clear();
  for (std::uint32_t i = 0; i < peers.size(); ++i) {
    for (FileId file : peers[i].wanted) s.wants.push_back({file, i});
  }
  std::sort(s.wants.begin(), s.wants.end(), [](const Want& a, const Want& b) {
    if (a.file != b.file) return a.file < b.file;
    return a.member < b.member;
  });

  s.candidates.clear();
  s.holderRows.clear();
  s.requesters.clear();
  s.groupRows.assign(3 * words, 0);
  std::uint64_t* heldRow = s.groupRows.data();
  std::uint64_t* contribRow = heldRow + words;
  std::uint64_t* wantRow = contribRow + words;
  std::size_t nextWant = 0;
  bool haveRow = false;
  FileId rowFile;  // the file wantRow and popularity belong to
  Popularity popularity = 0.0;
  for (std::size_t a = 0; a < s.held.size();) {
    const FileId file = s.held[a].file;
    const std::uint32_t piece = s.held[a].piece;
    std::fill_n(heldRow, 2 * words, 0);  // heldRow and contribRow
    std::uint32_t holders = 0;
    NodeId sender;
    std::size_t b = a;
    for (; b < s.held.size() && s.held[b].file == file &&
           s.held[b].piece == piece;
         ++b) {
      const std::uint32_t i = s.held[b].member;
      setBit(heldRow, i);
      if (!peers[i].contributes) continue;
      setBit(contribRow, i);
      if (holders == 0 || peers[i].id < sender) sender = peers[i].id;
      ++holders;
    }
    const std::size_t heldBy = b - a;
    a = b;
    // Nobody may send it, or nobody lacks it.
    if (holders == 0 || heldBy == peers.size()) continue;
    if (!haveRow || rowFile != file) {
      haveRow = true;
      rowFile = file;
      popularity = (*request.popularityOf)(file);
      std::fill_n(wantRow, words, 0);
      while (nextWant < s.wants.size() && s.wants[nextWant].file < file) {
        ++nextWant;
      }
      for (; nextWant < s.wants.size() && s.wants[nextWant].file == file;
           ++nextWant) {
        setBit(wantRow, s.wants[nextWant].member);
      }
    }
    Candidate cand;
    cand.file = file;
    cand.piece = piece;
    cand.popularity = popularity;
    cand.holders = holders;
    cand.sender = sender;
    cand.requesterBegin = static_cast<std::uint32_t>(s.requesters.size());
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = wantRow[w] & ~heldRow[w]; bits != 0;
           bits &= bits - 1) {
        s.requesters.push_back(
            peers[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]
                .id);
      }
    }
    cand.requesterCount =
        static_cast<std::uint32_t>(s.requesters.size()) - cand.requesterBegin;
    s.holderRows.insert(s.holderRows.end(), contribRow, contribRow + words);
    s.candidates.push_back(cand);
  }
}

void emitPlanned(obs::EngineObserver* observer, SimTime now,
                 std::size_t planned, int budget) {
  if (observer == nullptr) return;
  obs::SimEvent event;
  event.type = obs::SimEventType::kDownloadPlanned;
  event.time = now;
  event.extra = static_cast<std::uint32_t>(planned);
  event.value = static_cast<double>(budget);
  observer->onEvent(event);
}

/// Publishes the picked candidates as a broadcast plan. The requester arena
/// is filled completely before any span is cut, so nothing dangles.
DownloadPlan publishBroadcasts(const DownloadScratch& s) {
  DownloadPlan plan;
  std::size_t total = 0;
  for (const DownloadScratch::Pick& pick : s.picks) {
    total += s.candidates[pick.candidate].requesterCount;
  }
  plan.requesterPool.reserve(total);
  plan.broadcasts.reserve(s.picks.size());
  for (const DownloadScratch::Pick& pick : s.picks) {
    const Candidate& cand = s.candidates[pick.candidate];
    const auto first = s.requesters.begin() + cand.requesterBegin;
    plan.requesterPool.insert(plan.requesterPool.end(), first,
                              first + cand.requesterCount);
  }
  std::size_t offset = 0;
  for (const DownloadScratch::Pick& pick : s.picks) {
    const Candidate& cand = s.candidates[pick.candidate];
    PieceBroadcast b;
    b.sender = pick.sender;
    b.file = cand.file;
    b.piece = cand.piece;
    b.requesters = std::span<const NodeId>(plan.requesterPool)
                       .subspan(offset, cand.requesterCount);
    b.phase = cand.requesterCount == 0 ? 2 : 1;
    plan.broadcasts.push_back(b);
    offset += cand.requesterCount;
  }
  return plan;
}

/// Cooperative coordinator scheduling (paper V-A); with the request phase
/// disabled this is the popularity-only ablation.
class CooperativePlanner final : public DownloadPlanner {
 public:
  explicit CooperativePlanner(bool useRequestPhase)
      : useRequestPhase_(useRequestPhase) {}

  DownloadPlan plan(const DownloadRequest& request) const override {
    if (request.budgetPieces <= 0 || request.peers.size() < 2) return {};
    DownloadScratch local;
    DownloadScratch& s = request.scratch != nullptr ? *request.scratch : local;
    collectCandidates(request, s);
    const std::vector<Candidate>& cands = s.candidates;
    const bool useRequestPhase = useRequestPhase_;
    const bool rarestFirst = request.pushOrder == PushOrder::kRarestFirst;
    s.order.resize(cands.size());
    std::iota(s.order.begin(), s.order.end(), 0u);
    // The order is total (candidates are in (file, piece) order, so the
    // index is the key), so sorting only the first `budget` places picks
    // exactly what a full sort would.
    const auto take = static_cast<std::ptrdiff_t>(std::min<std::size_t>(
        static_cast<std::size_t>(request.budgetPieces), cands.size()));
    std::partial_sort(
        s.order.begin(), s.order.begin() + take, s.order.end(),
        [&cands, useRequestPhase, rarestFirst](std::uint32_t ai,
                                               std::uint32_t bi) {
          const Candidate& a = cands[ai];
          const Candidate& b = cands[bi];
          if (useRequestPhase && a.requesterCount != b.requesterCount) {
            return a.requesterCount > b.requesterCount;
          }
          if (rarestFirst && a.holders != b.holders) {
            return a.holders < b.holders;
          }
          if (a.popularity != b.popularity) {
            return a.popularity > b.popularity;
          }
          return ai < bi;  // pieces of a file flow in index order
        });
    s.picks.clear();
    for (std::ptrdiff_t k = 0; k < take; ++k) {
      const std::uint32_t c = s.order[static_cast<std::size_t>(k)];
      s.picks.push_back({cands[c].sender, c});
    }
    DownloadPlan plan = publishBroadcasts(s);
    emitPlanned(request.observer, request.now, plan.broadcasts.size(),
                request.budgetPieces);
    return plan;
  }

 private:
  bool useRequestPhase_;
};

/// Tit-for-tat turn scheduling (paper V-B). Member ids are distinct.
class TitForTatPlanner final : public DownloadPlanner {
 public:
  DownloadPlan plan(const DownloadRequest& request) const override {
    if (request.budgetPieces <= 0 || request.peers.size() < 2) return {};
    DownloadScratch local;
    DownloadScratch& s = request.scratch != nullptr ? *request.scratch : local;
    collectCandidates(request, s);
    const std::span<const DownloadPeer> peers = request.peers;
    s.contributors.clear();
    s.order.clear();  // contributor member indices, by id
    for (std::uint32_t i = 0; i < peers.size(); ++i) {
      if (!peers[i].contributes) continue;
      s.contributors.push_back(peers[i].id);
      s.order.push_back(i);
    }
    if (s.contributors.empty()) {
      emitPlanned(request.observer, request.now, 0, request.budgetPieces);
      return {};
    }
    std::sort(s.order.begin(), s.order.end(),
              [peers](std::uint32_t a, std::uint32_t b) {
                return peers[a].id < peers[b].id;
              });
    s.turns.clear();
    for (NodeId id : cyclicOrder(std::span<const NodeId>(s.contributors))) {
      s.turns.push_back(*std::lower_bound(
          s.order.begin(), s.order.end(), id,
          [peers](std::uint32_t i, NodeId v) { return peers[i].id < v; }));
    }

    const std::vector<Candidate>& cands = s.candidates;
    s.sent.assign((cands.size() + 63) / 64, 0);
    s.picks.clear();
    std::size_t turn = 0;
    int idleTurns = 0;
    while (static_cast<int>(s.picks.size()) < request.budgetPieces &&
           idleTurns < static_cast<int>(s.turns.size())) {
      const std::uint32_t si = s.turns[turn % s.turns.size()];
      ++turn;
      const DownloadPeer& sender = peers[si];
      // Candidates are in (file, piece) order, so the first of equal
      // weights has the lowest key.
      std::size_t best = cands.size();
      double bestWeight = -1.0;
      for (std::size_t c = 0; c < cands.size(); ++c) {
        if (testBit(s.sent.data(), c) ||
            !testBit(s.holderRows.data() + c * s.rowWords, si)) {
          continue;
        }
        const Candidate& cand = cands[c];
        double weight = cand.popularity;
        const auto first = s.requesters.begin() + cand.requesterBegin;
        for (auto r = first; r != first + cand.requesterCount; ++r) {
          weight += 1.0;  // a request always outranks a pure push
          weight +=
              sender.credits != nullptr ? sender.credits->credit(*r) : 0.0;
        }
        if (best == cands.size() || weight > bestWeight) {
          best = c;
          bestWeight = weight;
        }
      }
      if (best == cands.size()) {
        ++idleTurns;
        continue;
      }
      idleTurns = 0;
      setBit(s.sent.data(), best);
      s.picks.push_back({sender.id, static_cast<std::uint32_t>(best)});
    }
    DownloadPlan plan = publishBroadcasts(s);
    emitPlanned(request.observer, request.now, plan.broadcasts.size(),
                request.budgetPieces);
    return plan;
  }
};

/// Disjoint-pair unicast baseline.
class PairwisePlanner final : public DownloadPlanner {
 public:
  DownloadPlan plan(const DownloadRequest& request) const override {
    DownloadPlan plan;
    if (request.budgetPieces <= 0 || request.peers.size() < 2) return plan;
    const PopularityFn& popularityOf = *request.popularityOf;

    // Greedy matching by ascending id; a leftover odd member idles (it has
    // no link — the inefficiency the paper's broadcast scheme removes).
    std::vector<const DownloadPeer*> sorted;
    for (const DownloadPeer& peer : request.peers) sorted.push_back(&peer);
    std::sort(sorted.begin(), sorted.end(),
              [](const DownloadPeer* a, const DownloadPeer* b) {
                return a->id < b->id;
              });

    for (std::size_t i = 0; i + 1 < sorted.size(); i += 2) {
      const DownloadPeer& a = *sorted[i];
      const DownloadPeer& b = *sorted[i + 1];
      struct Option {
        PieceTransfer transfer;
        Popularity popularity = 0.0;
      };
      std::vector<Option> options;
      auto addOptions = [&](const DownloadPeer& from,
                            const DownloadPeer& to) {
        if (!from.contributes || from.pieces == nullptr) return;
        from.pieces->forEachHeldPiece([&](FileId file, std::uint32_t p) {
          if (to.pieces != nullptr && to.pieces->hasPiece(file, p)) return;
          Option opt;
          opt.transfer.sender = from.id;
          opt.transfer.receiver = to.id;
          opt.transfer.file = file;
          opt.transfer.piece = p;
          opt.transfer.requested =
              std::find(to.wanted.begin(), to.wanted.end(), file) !=
              to.wanted.end();
          opt.popularity = popularityOf(file);
          options.push_back(std::move(opt));
        });
      };
      addOptions(a, b);
      addOptions(b, a);
      std::sort(options.begin(), options.end(),
                [](const Option& x, const Option& y) {
                  if (x.transfer.requested != y.transfer.requested) {
                    return x.transfer.requested > y.transfer.requested;
                  }
                  if (x.popularity != y.popularity) {
                    return x.popularity > y.popularity;
                  }
                  if (x.transfer.file != y.transfer.file) {
                    return x.transfer.file < y.transfer.file;
                  }
                  if (x.transfer.piece != y.transfer.piece) {
                    return x.transfer.piece < y.transfer.piece;
                  }
                  return x.transfer.sender < y.transfer.sender;
                });
      // The pairwise link carries one piece per slot in either direction.
      const int take = std::min<int>(request.budgetPieces,
                                     static_cast<int>(options.size()));
      for (int k = 0; k < take; ++k) {
        plan.transfers.push_back(
            options[static_cast<std::size_t>(k)].transfer);
      }
    }
    emitPlanned(request.observer, request.now, plan.transfers.size(),
                request.budgetPieces);
    return plan;
  }
};

/// RLNC generation broadcasts (docs/CODING.md): instead of naming pieces,
/// grant each incomplete file a run of coded frames sized to the worst
/// receiver's piece deficit plus redundancy. Coefficient seeds are drawn by
/// the engine at transmission time. A receiver's decoder rank can only
/// exceed its held-piece count, so sizing frames off the stores never
/// undershoots — surplus frames cost redundancy, which is the mode's whole
/// trade.
class CodedPlanner final : public DownloadPlanner {
 public:
  DownloadPlan plan(const DownloadRequest& request) const override {
    if (request.budgetPieces <= 0 || request.peers.size() < 2) return {};

    struct FileCand {
      FileId file;
      Popularity popularity = 0.0;
      std::uint32_t generationSize = 0;
      std::uint32_t maxDeficit = 0;
      NodeId sender;
      std::uint32_t senderHeld = 0;
      bool hasSender = false;
      std::vector<NodeId> requesters;
    };
    std::map<FileId, FileCand> byFile;
    for (const DownloadPeer& peer : request.peers) {
      if (peer.pieces == nullptr) continue;
      for (FileId file : peer.pieces->files()) {
        const std::uint32_t k = peer.pieces->pieceCount(file);
        if (k == 0) continue;
        auto& cand = byFile[file];
        cand.file = file;
        cand.generationSize = std::max(cand.generationSize, k);
      }
    }
    for (auto& [file, cand] : byFile) {
      cand.popularity = (*request.popularityOf)(file);
      const std::uint32_t k = cand.generationSize;
      for (const DownloadPeer& peer : request.peers) {
        const std::uint32_t held =
            peer.pieces != nullptr ? peer.pieces->piecesHeld(file) : 0;
        // Sender: the contributing member holding the most pieces (ties go
        // to the lowest id, the coordinator convention). Partial holders
        // recode from the subspace they have.
        if (peer.contributes && peer.pieces != nullptr && held > 0 &&
            (!cand.hasSender || held > cand.senderHeld)) {
          cand.sender = peer.id;
          cand.senderHeld = held;
          cand.hasSender = true;
        }
        if (held >= k) continue;  // complete receivers need nothing
        cand.maxDeficit = std::max(cand.maxDeficit, k - held);
        const bool wants = std::find(peer.wanted.begin(), peer.wanted.end(),
                                     file) != peer.wanted.end();
        if (wants) cand.requesters.push_back(peer.id);
      }
    }
    std::vector<const FileCand*> order;
    for (const auto& [file, cand] : byFile) {
      if (!cand.hasSender || cand.maxDeficit == 0) continue;
      order.push_back(&cand);
    }
    // Requested generations first (more requesters first), then the
    // popularity push — the coded analogue of the cooperative phases.
    std::sort(order.begin(), order.end(),
              [](const FileCand* a, const FileCand* b) {
                if (a->requesters.size() != b->requesters.size()) {
                  return a->requesters.size() > b->requesters.size();
                }
                if (a->popularity != b->popularity) {
                  return a->popularity > b->popularity;
                }
                return a->file < b->file;
              });

    DownloadPlan plan;
    std::size_t totalRequesters = 0;
    for (const FileCand* cand : order) {
      totalRequesters += cand->requesters.size();
    }
    plan.requesterPool.reserve(totalRequesters);
    int budget = request.budgetPieces;
    std::size_t planned = 0;
    std::size_t offset = 0;
    for (const FileCand* cand : order) {
      if (budget <= 0) break;
      plan.requesterPool.insert(plan.requesterPool.end(),
                                cand->requesters.begin(),
                                cand->requesters.end());
    }
    // Two-pass budget split: coverage first (each planned generation gets
    // its worst deficit in frames, matching the selective modes' spend for
    // the same file), then redundancy only from whatever budget is left —
    // so extra frames never starve a later file out of the plan entirely.
    budget = request.budgetPieces;
    for (const FileCand* cand : order) {
      if (budget <= 0) break;
      const int frames =
          std::min(budget, static_cast<int>(cand->maxDeficit));
      budget -= frames;
      CodedBroadcast cb;
      cb.sender = cand->sender;
      cb.file = cand->file;
      cb.generationSize = cand->generationSize;
      cb.frames = static_cast<std::uint32_t>(frames);
      cb.popularity = cand->popularity;
      cb.requesters = std::span<const NodeId>(plan.requesterPool)
                          .subspan(offset, cand->requesters.size());
      offset += cand->requesters.size();
      plan.coded.push_back(cb);
      planned += static_cast<std::size_t>(frames);
    }
    for (std::size_t i = 0; i < plan.coded.size(); ++i) {
      if (budget <= 0) break;
      const double deficit = order[i]->maxDeficit;
      const int extra = std::min(
          budget,
          static_cast<int>(std::ceil(deficit * request.coded.redundancy)));
      plan.coded[i].frames += static_cast<std::uint32_t>(extra);
      budget -= extra;
      planned += static_cast<std::size_t>(extra);
    }
    emitPlanned(request.observer, request.now, planned,
                request.budgetPieces);
    return plan;
  }
};

}  // namespace

std::span<const DownloadModeInfo> downloadModeRegistry() {
  static const CooperativePlanner coop{/*useRequestPhase=*/true};
  static const CooperativePlanner popularity{/*useRequestPhase=*/false};
  static const TitForTatPlanner tft;
  static const PairwisePlanner pairwise;
  static const CodedPlanner coded;
  static const DownloadModeInfo entries[] = {
      {"coop", DownloadMode::kBroadcast, Scheduling::kCooperative, &coop},
      {"tft", DownloadMode::kBroadcast, Scheduling::kTitForTat, &tft},
      {"popularity", DownloadMode::kBroadcast, Scheduling::kPopularityOnly,
       &popularity},
      {"pairwise", DownloadMode::kPairwise, Scheduling::kCooperative,
       &pairwise},
      {"coded", DownloadMode::kCoded, Scheduling::kCooperative, &coded},
  };
  return entries;
}

const DownloadModeInfo* findDownloadMode(std::string_view name) {
  for (const DownloadModeInfo& info : downloadModeRegistry()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

const DownloadModeInfo& downloadModeInfo(DownloadMode mode,
                                         Scheduling scheduling) {
  const DownloadModeInfo* fallback = nullptr;
  for (const DownloadModeInfo& info : downloadModeRegistry()) {
    if (info.mode != mode) continue;
    if (info.scheduling == scheduling) return info;
    if (fallback == nullptr) fallback = &info;
  }
  // Pairwise/coded have one row each; any scheduling maps onto it.
  return *fallback;
}

}  // namespace hdtn::core
