#include "src/core/discovery.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>

#include "src/core/query.hpp"
#include "src/obs/events.hpp"
#include "src/util/random.hpp"
#include "src/util/string_util.hpp"

namespace hdtn::core {
namespace {

// Working view of one candidate record during planning. Holder sets live as
// bitmasks over the member list (see CandidateSet) rather than NodeId
// vectors: a contact has few members, so one or two words per candidate
// replace three heap vectors and all the per-member store lookups.
struct Candidate {
  const Metadata* metadata = nullptr;
  std::vector<NodeId> requesters;  // lackers with a matching query
};

// All candidates of one contact plus the contributing-holder bitmasks
// (row c occupies words [c*words, (c+1)*words), bit i = peers[i]).
struct CandidateSet {
  std::vector<Candidate> items;
  std::size_t words = 0;
  std::vector<std::uint64_t> contrib;

  [[nodiscard]] const std::uint64_t* row(std::size_t c) const {
    return contrib.data() + c * words;
  }
};

template <typename Fn>
void forEachBit(const std::uint64_t* mask, std::size_t words, Fn&& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

bool testBit(const std::uint64_t* mask, std::size_t i) {
  return (mask[i / 64] >> (i % 64)) & 1;
}

// The coordinator assigns the lowest-id contributing holder as sender.
NodeId minHolderId(const CandidateSet& set, std::size_t c,
                   std::span<const DiscoveryPeer> peers) {
  NodeId best;
  bool first = true;
  forEachBit(set.row(c), set.words, [&](std::size_t i) {
    if (first || peers[i].id < best) {
      best = peers[i].id;
      first = false;
    }
  });
  return best;
}

// Collects every record held by at least one contributing member and
// missing at at least one member. The stores' all() views are cached sorted
// spans, so candidate grouping is one flat sort of (file, member) entries;
// the lackers pass then works off per-candidate holder bitmasks and never
// touches the stores again.
CandidateSet collectCandidates(std::span<const DiscoveryPeer> peers) {
  CandidateSet set;
  set.words = (peers.size() + 63) / 64;
  struct Entry {
    FileId file;
    std::uint32_t peer;
    const Metadata* md;
  };
  std::vector<Entry> entries;
  std::size_t total = 0;
  for (const DiscoveryPeer& peer : peers) {
    if (peer.store != nullptr) total += peer.store->all().size();
  }
  entries.reserve(total);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i].store == nullptr) continue;
    for (const Metadata* md : peers[i].store->all()) {
      entries.push_back({md->file, static_cast<std::uint32_t>(i), md});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.peer < b.peer;
            });
  // Tokenized queries: prefer the caller's precomputed lists (the engine
  // caches them per node), tokenizing locally only for peers built by hand.
  std::vector<std::vector<std::vector<std::string>>> localTokens;
  std::vector<const std::vector<std::vector<std::string>>*> tokens(
      peers.size());
  localTokens.reserve(peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i].tokenizedQueries != nullptr) {
      tokens[i] = peers[i].tokenizedQueries;
      continue;
    }
    auto& mine = localTokens.emplace_back();
    for (const std::string& q : peers[i].queries) {
      mine.push_back(keywordTokens(q));
    }
    tokens[i] = &mine;
  }
  // Hash every query token once per contact; the per-candidate matching
  // below then probes the records' keyword-hash index.
  std::vector<std::vector<std::vector<std::uint64_t>>> tokenHashes(
      peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    tokenHashes[i].reserve(tokens[i]->size());
    for (const std::vector<std::string>& queryTokens : *tokens[i]) {
      auto& hashes = tokenHashes[i].emplace_back();
      hashes.reserve(queryTokens.size());
      for (const std::string& t : queryTokens) {
        hashes.push_back(keywordHash(t));
      }
    }
  }
  std::vector<std::uint64_t> heldBy(set.words);
  std::vector<std::uint64_t> contribRow(set.words);
  for (std::size_t a = 0; a < entries.size();) {
    std::size_t b = a;
    while (b < entries.size() && entries[b].file == entries[a].file) ++b;
    std::fill(heldBy.begin(), heldBy.end(), 0);
    std::fill(contribRow.begin(), contribRow.end(), 0);
    bool anyContributor = false;
    for (std::size_t e = a; e < b; ++e) {
      const std::size_t i = entries[e].peer;
      heldBy[i / 64] |= std::uint64_t{1} << (i % 64);
      if (peers[i].contributes) {
        contribRow[i / 64] |= std::uint64_t{1} << (i % 64);
        anyContributor = true;
      }
    }
    Candidate cand;
    // When multiple stores carry (divergent copies of) the record, the one
    // from the highest member index wins, as the old per-member overwrite
    // produced.
    cand.metadata = entries[b - 1].md;
    a = b;
    if (!anyContributor) continue;
    bool anyLacker = false;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const DiscoveryPeer& peer = peers[i];
      if (testBit(heldBy.data(), i)) continue;
      // A record the peer refused counts as held: re-sending it would only
      // burn broadcast budget on a guaranteed rejection.
      if (peer.rejected != nullptr &&
          peer.rejected->contains(cand.metadata->file)) {
        continue;
      }
      // Likewise when the peer distrusts every node able to send it.
      if (peer.distrustedSenders != nullptr) {
        bool someTrustedHolder = false;
        forEachBit(contribRow.data(), set.words, [&](std::size_t h) {
          someTrustedHolder = someTrustedHolder ||
                              !peer.distrustedSenders->contains(peers[h].id);
        });
        if (!someTrustedHolder) continue;
      }
      anyLacker = true;
      bool wants = false;
      for (std::size_t q = 0; q < tokens[i]->size() && !wants; ++q) {
        wants = queryTokensMatchPrehashed((*tokens[i])[q], tokenHashes[i][q],
                                          *cand.metadata);
      }
      if (wants) cand.requesters.push_back(peer.id);
    }
    if (!anyLacker) continue;
    set.contrib.insert(set.contrib.end(), contribRow.begin(),
                       contribRow.end());
    set.items.push_back(std::move(cand));
  }
  return set;
}

std::vector<MetadataBroadcast> planCooperative(
    std::span<const DiscoveryPeer> peers, int budget, bool useRequestPhase) {
  const CandidateSet set = collectCandidates(peers);
  // Two-phase order: requested records by (requester count desc, popularity
  // desc), then unrequested by popularity desc. File id breaks exact ties
  // deterministically. The popularity-only ablation skips the request phase.
  std::vector<std::uint32_t> order(set.items.size());
  for (std::uint32_t c = 0; c < order.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(),
            [&set, useRequestPhase](std::uint32_t ai, std::uint32_t bi) {
              const Candidate& a = set.items[ai];
              const Candidate& b = set.items[bi];
              if (useRequestPhase &&
                  a.requesters.size() != b.requesters.size()) {
                return a.requesters.size() > b.requesters.size();
              }
              if (a.metadata->popularity != b.metadata->popularity) {
                return a.metadata->popularity > b.metadata->popularity;
              }
              return a.metadata->file < b.metadata->file;
            });
  std::vector<MetadataBroadcast> plan;
  for (std::uint32_t c : order) {
    if (static_cast<int>(plan.size()) >= budget) break;
    const Candidate& cand = set.items[c];
    MetadataBroadcast b;
    b.sender = minHolderId(set, c, peers);
    b.metadata = cand.metadata;
    b.requesters = cand.requesters;
    b.phase = cand.requesters.empty() ? 2 : 1;
    plan.push_back(std::move(b));
  }
  return plan;
}

// The credit-weighted demand `sender` sees for a candidate. The summation
// order matters: the optimized planner precomputes these values and must
// produce bit-identical doubles to the reference's per-turn recomputation.
double demandWeight(const DiscoveryPeer& sender, const Candidate& cand) {
  double weight = 0.0;
  for (NodeId requester : cand.requesters) {
    weight += sender.credits != nullptr ? sender.credits->credit(requester)
                                        : 0.0;
    // A request is worth at least a popularity unit even from a
    // zero-credit peer, keeping requested items ahead of pure pushes.
    weight += 1.0;
  }
  weight += cand.metadata->popularity;  // push-phase tiebreak
  return weight;
}

// Shared tit-for-tat setup: candidate collection, contributor list, and the
// agreed cyclic sender order (paper V-B uses the same construction for
// downloads; discovery reuses it so no selfish coordinator exists). Senders
// are handled as member indices into `peers`.
struct TftSetup {
  CandidateSet set;
  std::vector<std::size_t> order;  // cyclic sender turns, as peer indices
};

TftSetup tftSetup(std::span<const DiscoveryPeer> peers) {
  TftSetup setup;
  setup.set = collectCandidates(peers);
  std::vector<NodeId> contributorIds;
  std::unordered_map<NodeId, std::size_t> indexById;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    indexById.emplace(peers[i].id, i);
    if (peers[i].contributes) contributorIds.push_back(peers[i].id);
  }
  if (!contributorIds.empty()) {
    for (NodeId id : cyclicOrder(std::span<const NodeId>(contributorIds))) {
      setup.order.push_back(indexById.at(id));
    }
  }
  return setup;
}

MetadataBroadcast broadcastFor(NodeId sender, const Candidate& cand) {
  MetadataBroadcast b;
  b.sender = sender;
  b.metadata = cand.metadata;
  b.requesters = cand.requesters;
  b.phase = cand.requesters.empty() ? 2 : 1;
  return b;
}

// Optimized tit-for-tat: each sender's preference over its own records is
// static during a contact (credits, requesters, and popularity are all
// snapshots), so senders keep max-heaps over one CSR-style flat array
// segmented by sender. Each turn pops the sender's heap past
// already-broadcast records instead of rescanning all candidates x members.
// O(sum_s |cands_s|) heapify setup, O((budget + skips) log) loop — versus
// O(budget x candidates x members) for the reference.
std::vector<MetadataBroadcast> planTitForTat(
    std::span<const DiscoveryPeer> peers, int budget) {
  const TftSetup setup = tftSetup(peers);
  if (setup.order.empty()) return {};
  const CandidateSet& set = setup.set;

  // CSR layout: sender i owns ranked[offset[i], offset[i+1]).
  std::vector<std::size_t> offset(peers.size() + 1, 0);
  for (std::size_t c = 0; c < set.items.size(); ++c) {
    forEachBit(set.row(c), set.words, [&](std::size_t i) { ++offset[i + 1]; });
  }
  for (std::size_t i = 0; i < peers.size(); ++i) offset[i + 1] += offset[i];
  struct RankedItem {
    double weight;
    FileId file;  // denormalized so tie-breaking needs no pointer chase
    std::uint32_t candidate;
  };
  std::vector<RankedItem> ranked(offset.back());
  std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
  // An unrequested candidate weighs exactly its popularity for every sender
  // (demandWeight's requester sum is empty), so those rows — the vast
  // majority — are keyed once here instead of per holder.
  std::vector<RankedItem> base(set.items.size());
  std::vector<bool> requested(set.items.size());
  for (std::uint32_t c = 0; c < set.items.size(); ++c) {
    const Metadata& md = *set.items[c].metadata;
    base[c] = {md.popularity, md.file, c};
    requested[c] = !set.items[c].requesters.empty();
  }
  for (std::uint32_t c = 0; c < set.items.size(); ++c) {
    forEachBit(set.row(c), set.words, [&](std::size_t i) {
      RankedItem item = base[c];
      if (requested[c]) item.weight = demandWeight(peers[i], set.items[c]);
      ranked[cursor[i]++] = item;
    });
  }
  // Per-sender preference: (demand weight desc, file id asc) — exactly the
  // reference's pick rule, realized as a max-heap per segment. A sender only
  // ever surfaces ~budget/|senders| items, so heapify-then-pop beats a full
  // sort of every segment.
  const auto heapLess = [](const RankedItem& a, const RankedItem& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.file > b.file;
  };
  for (std::size_t i = 0; i < peers.size(); ++i) {
    std::make_heap(ranked.begin() + static_cast<std::ptrdiff_t>(offset[i]),
                   ranked.begin() + static_cast<std::ptrdiff_t>(offset[i + 1]),
                   heapLess);
    cursor[i] = offset[i + 1];  // the live end of sender i's heap
  }

  std::vector<MetadataBroadcast> plan;
  std::vector<bool> sent(set.items.size(), false);
  std::size_t turn = 0;
  int idleTurns = 0;
  while (static_cast<int>(plan.size()) < budget &&
         idleTurns < static_cast<int>(setup.order.size())) {
    const std::size_t si = setup.order[turn % setup.order.size()];
    ++turn;
    const auto begin = ranked.begin() + static_cast<std::ptrdiff_t>(offset[si]);
    std::size_t& end = cursor[si];
    // Drop records another sender already broadcast.
    while (end > offset[si] && sent[begin->candidate]) {
      std::pop_heap(begin, ranked.begin() + static_cast<std::ptrdiff_t>(end--),
                    heapLess);
    }
    if (end == offset[si]) {
      ++idleTurns;
      continue;
    }
    idleTurns = 0;
    const std::uint32_t chosen = begin->candidate;
    std::pop_heap(begin, ranked.begin() + static_cast<std::ptrdiff_t>(end--),
                  heapLess);
    sent[chosen] = true;
    plan.push_back(broadcastFor(peers[si].id, set.items[chosen]));
  }
  return plan;
}

}  // namespace

std::vector<MetadataBroadcast> planDiscovery(
    std::span<const DiscoveryPeer> peers, int budget, Scheduling scheduling,
    obs::EngineObserver* observer, SimTime now) {
  if (budget <= 0 || peers.size() < 2) return {};
  std::vector<MetadataBroadcast> plan;
  switch (scheduling) {
    case Scheduling::kCooperative:
      plan = planCooperative(peers, budget, /*useRequestPhase=*/true);
      break;
    case Scheduling::kTitForTat:
      plan = planTitForTat(peers, budget);
      break;
    case Scheduling::kPopularityOnly:
      plan = planCooperative(peers, budget, /*useRequestPhase=*/false);
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
