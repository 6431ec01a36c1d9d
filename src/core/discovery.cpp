#include "src/core/discovery.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "src/core/planner_arrays.hpp"
#include "src/core/query.hpp"
#include "src/obs/events.hpp"
#include "src/util/random.hpp"

namespace hdtn::core {
namespace {

using Candidate = DiscoveryScratch::Candidate;
using Held = DiscoveryScratch::Held;
using Ranked = DiscoveryScratch::Ranked;

// Holder sets live as bitmasks over the member list (row c of
// DiscoveryScratch::holderRows) rather than NodeId vectors: a contact has
// few members, so one or two words per candidate replace three heap vectors
// and all the per-member store lookups.
const std::uint64_t* holderRow(const DiscoveryScratch& s, std::size_t c) {
  return s.holderRows.data() + c * s.rowWords;
}

std::span<const NodeId> requestersOf(const DiscoveryScratch& s,
                                     const Candidate& cand) {
  return std::span<const NodeId>(s.requesters)
      .subspan(cand.requesterBegin, cand.requesterCount);
}

// The coordinator assigns the lowest-id contributing holder as sender.
NodeId minHolderId(const DiscoveryScratch& s, std::size_t c,
                   std::span<const DiscoveryPeer> peers) {
  NodeId best;
  bool first = true;
  forEachBit(holderRow(s, c), s.rowWords, [&](std::size_t i) {
    if (first || peers[i].id < best) {
      best = peers[i].id;
      first = false;
    }
  });
  return best;
}

// Collects every record held by at least one contributing member and
// missing at at least one member into `s.candidates`. Each store's all()
// view is already in file order, so grouping is one merge of the members'
// runs into (file, member) order; the lackers pass then works off
// per-candidate holder bitmasks and never touches the stores again.
void collectCandidates(std::span<const DiscoveryPeer> peers,
                       DiscoveryScratch& s) {
  const std::size_t words = (peers.size() + 63) / 64;
  s.rowWords = words;
  s.held.clear();
  s.runs.assign(1, 0);
  for (std::uint32_t i = 0; i < peers.size(); ++i) {
    if (peers[i].store == nullptr) continue;
    for (const Metadata* md : peers[i].store->all()) {
      s.held.push_back({md->file, i, md});
    }
    if (s.held.size() != s.runs.back()) s.runs.push_back(s.held.size());
  }
  mergeSortedRuns(s.held, s.runs, s.mergeBuffer,
                  [](const Held& a, const Held& b) {
                    if (a.file != b.file) return a.file < b.file;
                    return a.member < b.member;
                  });
  // Query tokens and their hashes: the caller's query objects carry both;
  // peers built by hand (strings only) are tokenized and hashed here.
  std::vector<FileQuery> local;
  for (const DiscoveryPeer& peer : peers) {
    if (peer.queryObjects == nullptr) {
      for (const std::string& q : peer.queries) local.emplace_back(q);
    }
  }
  s.queryTokens.clear();
  s.queryBegin.assign(1, 0);
  const auto add = [&s](const FileQuery& q) {
    s.queryTokens.push_back({&q.tokens, &q.tokenHashes});
  };
  std::size_t nextLocal = 0;
  for (const DiscoveryPeer& peer : peers) {
    if (peer.queryObjects != nullptr) {
      for (const FileQuery* q : *peer.queryObjects) add(*q);
    } else {
      for (std::size_t q = 0; q < peer.queries.size(); ++q) {
        add(local[nextLocal++]);
      }
    }
    s.queryBegin.push_back(s.queryTokens.size());
  }
  s.candidates.clear();
  s.holderRows.clear();
  s.requesters.clear();
  s.groupRows.assign(2 * words, 0);
  std::uint64_t* heldBy = s.groupRows.data();
  std::uint64_t* contribRow = heldBy + words;
  for (std::size_t a = 0; a < s.held.size();) {
    std::size_t b = a;
    while (b < s.held.size() && s.held[b].file == s.held[a].file) ++b;
    std::fill_n(heldBy, 2 * words, 0);  // heldBy and contribRow
    bool anyContributor = false;
    for (std::size_t e = a; e < b; ++e) {
      const std::size_t i = s.held[e].member;
      setBit(heldBy, i);
      if (peers[i].contributes) {
        setBit(contribRow, i);
        anyContributor = true;
      }
    }
    // When multiple stores carry (divergent copies of) the record, the one
    // from the highest member index wins, as the old per-member overwrite
    // produced.
    const Metadata* record = s.held[b - 1].record;
    a = b;
    if (!anyContributor) continue;
    bool anyLacker = false;
    Candidate cand;
    cand.metadata = record;
    cand.requesterBegin = static_cast<std::uint32_t>(s.requesters.size());
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const DiscoveryPeer& peer = peers[i];
      if (testBit(heldBy, i)) continue;
      // A record the peer refused counts as held: re-sending it would only
      // burn broadcast budget on a guaranteed rejection.
      if (peer.rejected != nullptr && peer.rejected->contains(record->file)) {
        continue;
      }
      // Likewise when the peer distrusts every node able to send it.
      if (peer.distrustedSenders != nullptr) {
        bool someTrustedHolder = false;
        forEachBit(contribRow, words, [&](std::size_t h) {
          someTrustedHolder = someTrustedHolder ||
                              !peer.distrustedSenders->contains(peers[h].id);
        });
        if (!someTrustedHolder) continue;
      }
      anyLacker = true;
      bool wants = false;
      for (std::size_t q = s.queryBegin[i]; q < s.queryBegin[i + 1] && !wants;
           ++q) {
        wants = queryTokensMatchPrehashed(*s.queryTokens[q].tokens,
                                          *s.queryTokens[q].hashes, *record);
      }
      if (wants) s.requesters.push_back(peer.id);
    }
    if (!anyLacker) continue;
    cand.requesterCount =
        static_cast<std::uint32_t>(s.requesters.size()) - cand.requesterBegin;
    s.holderRows.insert(s.holderRows.end(), contribRow, contribRow + words);
    s.candidates.push_back(cand);
  }
}

MetadataBroadcast broadcastFor(NodeId sender, const DiscoveryScratch& s,
                               const Candidate& cand) {
  const std::span<const NodeId> requesters = requestersOf(s, cand);
  MetadataBroadcast b;
  b.sender = sender;
  b.metadata = cand.metadata;
  b.requesters.assign(requesters.begin(), requesters.end());
  b.phase = requesters.empty() ? 2 : 1;
  return b;
}

std::vector<MetadataBroadcast> planCooperative(
    std::span<const DiscoveryPeer> peers, int budget, bool useRequestPhase,
    DiscoveryScratch& s) {
  collectCandidates(peers, s);
  // Two-phase order: requested records by (requester count desc, popularity
  // desc), then unrequested by popularity desc. File id breaks exact ties
  // deterministically. The popularity-only ablation skips the request phase.
  // The order is total, so sorting only the first `budget` places picks
  // exactly what a full sort would.
  const std::vector<Candidate>& cands = s.candidates;
  s.order.resize(cands.size());
  std::iota(s.order.begin(), s.order.end(), 0u);
  const auto take = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(static_cast<std::size_t>(budget), cands.size()));
  std::partial_sort(
      s.order.begin(), s.order.begin() + take, s.order.end(),
      [&cands, useRequestPhase](std::uint32_t ai, std::uint32_t bi) {
        const Candidate& a = cands[ai];
        const Candidate& b = cands[bi];
        if (useRequestPhase && a.requesterCount != b.requesterCount) {
          return a.requesterCount > b.requesterCount;
        }
        if (a.metadata->popularity != b.metadata->popularity) {
          return a.metadata->popularity > b.metadata->popularity;
        }
        return a.metadata->file < b.metadata->file;
      });
  std::vector<MetadataBroadcast> plan;
  plan.reserve(static_cast<std::size_t>(take));
  for (std::ptrdiff_t k = 0; k < take; ++k) {
    const std::uint32_t c = s.order[static_cast<std::size_t>(k)];
    plan.push_back(broadcastFor(minHolderId(s, c, peers), s, cands[c]));
  }
  return plan;
}

// The credit-weighted demand `sender` sees for a candidate. The summation
// order matters: the optimized planner precomputes these values and must
// produce bit-identical doubles to the reference's per-turn recomputation.
double demandWeight(const DiscoveryPeer& sender, const DiscoveryScratch& s,
                    const Candidate& cand) {
  double weight = 0.0;
  for (NodeId requester : requestersOf(s, cand)) {
    weight += sender.credits != nullptr ? sender.credits->credit(requester)
                                        : 0.0;
    // A request is worth at least a popularity unit even from a
    // zero-credit peer, keeping requested items ahead of pure pushes.
    weight += 1.0;
  }
  weight += cand.metadata->popularity;  // push-phase tiebreak
  return weight;
}

// Optimized tit-for-tat: each sender's preference over its own records is
// static during a contact (credits, requesters, and popularity are all
// snapshots), so senders keep max-heaps over one CSR-style flat array
// segmented by sender. Each turn pops the sender's heap past
// already-broadcast records instead of rescanning all candidates x members.
// O(sum_s |cands_s|) heapify setup, O((budget + skips) log) loop — versus
// O(budget x candidates x members) for the reference. Senders take turns in
// the agreed cyclic order over the contributors (paper V-B uses the same
// construction for downloads; discovery reuses it so no selfish coordinator
// exists).
std::vector<MetadataBroadcast> planTitForTat(
    std::span<const DiscoveryPeer> peers, int budget, DiscoveryScratch& s) {
  collectCandidates(peers, s);
  std::vector<NodeId> contributorIds;
  s.order.clear();  // contributor member indices by (id, index)
  for (std::uint32_t i = 0; i < peers.size(); ++i) {
    if (!peers[i].contributes) continue;
    contributorIds.push_back(peers[i].id);
    s.order.push_back(i);
  }
  if (contributorIds.empty()) return {};
  std::sort(s.order.begin(), s.order.end(),
            [peers](std::uint32_t a, std::uint32_t b) {
              if (peers[a].id != peers[b].id) return peers[a].id < peers[b].id;
              return a < b;
            });
  std::vector<std::uint32_t> turns;  // cyclic sender turns, as peer indices
  turns.reserve(contributorIds.size());
  for (NodeId id : cyclicOrder(std::span<const NodeId>(contributorIds))) {
    turns.push_back(*std::lower_bound(
        s.order.begin(), s.order.end(), id,
        [peers](std::uint32_t i, NodeId v) { return peers[i].id < v; }));
  }
  const std::vector<Candidate>& cands = s.candidates;

  // CSR layout: sender i owns ranked[offset[i], offset[i+1]).
  s.offset.assign(peers.size() + 1, 0);
  for (std::size_t c = 0; c < cands.size(); ++c) {
    forEachBit(holderRow(s, c), s.rowWords,
               [&](std::size_t i) { ++s.offset[i + 1]; });
  }
  for (std::size_t i = 0; i < peers.size(); ++i) {
    s.offset[i + 1] += s.offset[i];
  }
  s.ranked.resize(s.offset.back());
  s.cursor.assign(s.offset.begin(), s.offset.end() - 1);
  // An unrequested candidate weighs exactly its popularity for every sender
  // (demandWeight's requester sum is empty), so those rows — the vast
  // majority — are keyed once instead of per holder.
  for (std::uint32_t c = 0; c < cands.size(); ++c) {
    const Metadata& md = *cands[c].metadata;
    const bool requested = cands[c].requesterCount != 0;
    forEachBit(holderRow(s, c), s.rowWords, [&](std::size_t i) {
      Ranked item{md.popularity, md.file, c};
      if (requested) item.weight = demandWeight(peers[i], s, cands[c]);
      s.ranked[s.cursor[i]++] = item;
    });
  }
  // Per-sender preference: (demand weight desc, file id asc) — exactly the
  // reference's pick rule, realized as a max-heap per segment. A sender only
  // ever surfaces ~budget/|senders| items, so heapify-then-pop beats a full
  // sort of every segment.
  const auto heapLess = [](const Ranked& a, const Ranked& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.file > b.file;
  };
  const auto at = [&s](std::size_t k) {
    return s.ranked.begin() + static_cast<std::ptrdiff_t>(k);
  };
  for (std::size_t i = 0; i < peers.size(); ++i) {
    std::make_heap(at(s.offset[i]), at(s.offset[i + 1]), heapLess);
    s.cursor[i] = s.offset[i + 1];  // the live end of sender i's heap
  }

  std::vector<MetadataBroadcast> plan;
  s.sent.assign((cands.size() + 63) / 64, 0);
  std::size_t turn = 0;
  int idleTurns = 0;
  while (static_cast<int>(plan.size()) < budget &&
         idleTurns < static_cast<int>(turns.size())) {
    const std::size_t si = turns[turn % turns.size()];
    ++turn;
    const auto begin = at(s.offset[si]);
    std::size_t& end = s.cursor[si];
    // Drop records another sender already broadcast.
    while (end > s.offset[si] && testBit(s.sent.data(), begin->candidate)) {
      std::pop_heap(begin, at(end--), heapLess);
    }
    if (end == s.offset[si]) {
      ++idleTurns;
      continue;
    }
    idleTurns = 0;
    const std::uint32_t chosen = begin->candidate;
    std::pop_heap(begin, at(end--), heapLess);
    setBit(s.sent.data(), chosen);
    plan.push_back(broadcastFor(peers[si].id, s, cands[chosen]));
  }
  return plan;
}

}  // namespace

std::vector<MetadataBroadcast> planDiscovery(
    std::span<const DiscoveryPeer> peers, int budget, Scheduling scheduling,
    obs::EngineObserver* observer, SimTime now, DiscoveryScratch* scratch) {
  if (budget <= 0 || peers.size() < 2) return {};
  DiscoveryScratch local;
  DiscoveryScratch& s = scratch != nullptr ? *scratch : local;
  std::vector<MetadataBroadcast> plan;
  switch (scheduling) {
    case Scheduling::kCooperative:
      plan = planCooperative(peers, budget, /*useRequestPhase=*/true, s);
      break;
    case Scheduling::kTitForTat:
      plan = planTitForTat(peers, budget, s);
      break;
    case Scheduling::kPopularityOnly:
      plan = planCooperative(peers, budget, /*useRequestPhase=*/false, s);
      break;
  }
  if (observer != nullptr) {
    obs::SimEvent event;
    event.type = obs::SimEventType::kDiscoveryPlanned;
    event.time = now;
    event.extra = static_cast<std::uint32_t>(plan.size());
    event.value = static_cast<double>(budget);
    observer->onEvent(event);
  }
  return plan;
}

}  // namespace hdtn::core
