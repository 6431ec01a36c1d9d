#include "tests/reference_oracles.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "src/core/internet.hpp"
#include "src/core/query.hpp"
#include "src/core/state_refs.hpp"
#include "src/util/random.hpp"
#include "src/util/string_util.hpp"

namespace hdtn {
namespace core {

namespace {

std::vector<MetadataBroadcast> planCooperativeDiscoveryReference(
    std::span<const DiscoveryPeer> peers, int budget, bool useRequestPhase) {
  // Member by member: the copy of the highest-index holder wins.
  std::map<FileId, std::pair<const Metadata*, std::uint32_t>> records;
  std::map<FileId, std::vector<std::size_t>> contributingHolders;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i].store == nullptr) continue;
    for (const Metadata* md : peers[i].store->all()) {
      records[md->file] = {md, static_cast<std::uint32_t>(i)};
      if (peers[i].contributes) contributingHolders[md->file].push_back(i);
    }
  }
  struct Candidate {
    const Metadata* md;
    std::uint32_t holder;
    NodeId sender;
    std::vector<NodeId> requesters;
  };
  std::vector<Candidate> candidates;
  for (const auto& [file, record] : records) {
    const auto [md, holder] = record;
    const std::vector<std::size_t>& holders = contributingHolders[file];
    if (holders.empty()) continue;
    Candidate cand{md, holder, peers[holders.front()].id, {}};
    for (std::size_t h : holders) cand.sender = std::min(cand.sender, peers[h].id);
    bool anyLacker = false;
    for (const DiscoveryPeer& peer : peers) {
      if (peer.store != nullptr && peer.store->has(file)) continue;
      if (peer.rejected != nullptr && peer.rejected->contains(file)) continue;
      if (peer.distrustedSenders != nullptr &&
          std::none_of(holders.begin(), holders.end(), [&](std::size_t h) {
            return !peer.distrustedSenders->contains(peers[h].id);
          })) {
        continue;
      }
      anyLacker = true;
      std::vector<std::vector<std::string>> tokens;
      if (peer.queryObjects != nullptr) {
        for (const FileQuery* q : *peer.queryObjects) {
          tokens.push_back(q->tokens);
        }
      } else {
        for (const std::string& q : peer.queries) {
          tokens.push_back(keywordTokens(q));
        }
      }
      if (std::any_of(tokens.begin(), tokens.end(),
                      [&](const std::vector<std::string>& queryTokens) {
                        return queryTokensMatch(queryTokens, *md);
                      })) {
        cand.requesters.push_back(peer.id);
      }
    }
    if (anyLacker) candidates.push_back(std::move(cand));
  }
  std::sort(candidates.begin(), candidates.end(),
            [useRequestPhase](const Candidate& a, const Candidate& b) {
              if (useRequestPhase &&
                  a.requesters.size() != b.requesters.size()) {
                return a.requesters.size() > b.requesters.size();
              }
              if (a.md->popularity != b.md->popularity) {
                return a.md->popularity > b.md->popularity;
              }
              return a.md->file < b.md->file;
            });
  std::vector<MetadataBroadcast> plan;
  for (const Candidate& cand : candidates) {
    if (static_cast<int>(plan.size()) >= budget) break;
    MetadataBroadcast b;
    b.sender = cand.sender;
    b.metadata = cand.md;
    b.holder = cand.holder;
    b.requesters = cand.requesters;
    b.phase = cand.requesters.empty() ? 2 : 1;
    plan.push_back(std::move(b));
  }
  return plan;
}

}  // namespace

std::vector<MetadataBroadcast> planDiscoveryReference(
    std::span<const DiscoveryPeer> peers, int budget, Scheduling scheduling) {
  if (budget <= 0 || peers.size() < 2) return {};
  if (scheduling != Scheduling::kTitForTat) {
    return planCooperativeDiscoveryReference(
        peers, budget, scheduling == Scheduling::kCooperative);
  }
  // Every candidate record exactly once, with its requesters: an unbounded
  // cooperative plan.
  const std::vector<MetadataBroadcast> candidates =
      planCooperativeDiscoveryReference(
          peers, std::numeric_limits<int>::max(), /*useRequestPhase=*/true);
  // Senders take turns in the agreed cyclic order over the contributors.
  std::vector<NodeId> contributors;
  for (const DiscoveryPeer& peer : peers) {
    if (peer.contributes) contributors.push_back(peer.id);
  }
  if (contributors.empty()) return {};
  std::vector<const DiscoveryPeer*> order;
  for (NodeId id : cyclicOrder(std::span<const NodeId>(contributors))) {
    order.push_back(&*std::find_if(
        peers.begin(), peers.end(),
        [id](const DiscoveryPeer& peer) { return peer.id == id; }));
  }

  std::vector<MetadataBroadcast> plan;
  std::unordered_set<FileId> sent;
  std::size_t turn = 0;
  std::size_t idleTurns = 0;
  while (static_cast<int>(plan.size()) < budget && idleTurns < order.size()) {
    const DiscoveryPeer& sender = *order[turn++ % order.size()];
    // The sender picks, among its own records not yet broadcast, the one
    // with the highest credit-weighted demand (file id breaks ties).
    const MetadataBroadcast* best = nullptr;
    double bestWeight = -1.0;
    for (const MetadataBroadcast& cand : candidates) {
      const FileId file = cand.metadata->file;
      if (sent.contains(file) || !sender.store->has(file)) continue;
      double weight = 0.0;
      for (NodeId requester : cand.requesters) {
        weight += sender.credits != nullptr ? sender.credits->credit(requester)
                                            : 0.0;
        weight += 1.0;
      }
      weight += cand.metadata->popularity;
      if (best == nullptr || weight > bestWeight ||
          (weight == bestWeight && file < best->metadata->file)) {
        best = &cand;
        bestWeight = weight;
      }
    }
    if (best == nullptr) {
      ++idleTurns;
      continue;
    }
    idleTurns = 0;
    sent.insert(best->metadata->file);
    MetadataBroadcast broadcast = *best;
    broadcast.sender = sender.id;
    plan.push_back(std::move(broadcast));
  }
  return plan;
}

namespace {

struct PieceKey {
  FileId file;
  std::uint32_t piece = 0;
  friend auto operator<=>(const PieceKey&, const PieceKey&) = default;
};

struct DownloadCandidate {
  PieceKey key;
  Popularity popularity = 0.0;
  std::vector<NodeId> holders;
  std::vector<NodeId> lackers;
  std::vector<NodeId> requesters;
};

std::vector<DownloadCandidate> collectDownloadCandidates(
    std::span<const DownloadPeer> peers, const PopularityFn& popularityOf) {
  // Union of every piece held by a contributing member.
  std::map<PieceKey, DownloadCandidate> byKey;
  for (const DownloadPeer& peer : peers) {
    if (peer.pieces == nullptr || !peer.contributes) continue;
    for (FileId file : peer.pieces->files()) {
      const std::uint32_t count = peer.pieces->pieceCount(file);
      for (std::uint32_t p = 0; p < count; ++p) {
        if (!peer.pieces->hasPiece(file, p)) continue;
        auto& cand = byKey[PieceKey{file, p}];
        cand.key = PieceKey{file, p};
        cand.holders.push_back(peer.id);
      }
    }
  }
  std::vector<DownloadCandidate> out;
  out.reserve(byKey.size());
  for (auto& [key, cand] : byKey) {
    cand.popularity = popularityOf(key.file);
    for (const DownloadPeer& peer : peers) {
      if (peer.pieces != nullptr &&
          peer.pieces->hasPiece(key.file, key.piece)) {
        continue;
      }
      cand.lackers.push_back(peer.id);
      const bool wants = std::find(peer.wanted.begin(), peer.wanted.end(),
                                   key.file) != peer.wanted.end();
      if (wants) cand.requesters.push_back(peer.id);
    }
    if (cand.lackers.empty()) continue;
    out.push_back(std::move(cand));
  }
  return out;
}

DownloadPlan publishDownloadBroadcasts(
    std::span<const std::pair<NodeId, const DownloadCandidate*>> selected) {
  DownloadPlan plan;
  for (const auto& [sender, cand] : selected) {
    plan.requesterPool.insert(plan.requesterPool.end(),
                              cand->requesters.begin(),
                              cand->requesters.end());
  }
  std::size_t offset = 0;
  for (const auto& [sender, cand] : selected) {
    PieceBroadcast b;
    b.sender = sender;
    b.file = cand->key.file;
    b.piece = cand->key.piece;
    b.requesters = std::span<const NodeId>(plan.requesterPool)
                       .subspan(offset, cand->requesters.size());
    b.phase = cand->requesters.empty() ? 2 : 1;
    plan.broadcasts.push_back(b);
    offset += cand->requesters.size();
  }
  return plan;
}

}  // namespace

DownloadPlan planDownloadReference(std::span<const DownloadPeer> peers,
                                   const PopularityFn& popularityOf,
                                   int budgetPieces, Scheduling scheduling,
                                   PushOrder pushOrder) {
  if (budgetPieces <= 0 || peers.size() < 2) return {};
  std::vector<DownloadCandidate> candidates =
      collectDownloadCandidates(peers, popularityOf);
  std::vector<std::pair<NodeId, const DownloadCandidate*>> selected;
  if (scheduling != Scheduling::kTitForTat) {
    const bool useRequestPhase = scheduling == Scheduling::kCooperative;
    std::sort(candidates.begin(), candidates.end(),
              [useRequestPhase, pushOrder](const DownloadCandidate& a,
                                           const DownloadCandidate& b) {
                if (useRequestPhase &&
                    a.requesters.size() != b.requesters.size()) {
                  return a.requesters.size() > b.requesters.size();
                }
                if (pushOrder == PushOrder::kRarestFirst &&
                    a.holders.size() != b.holders.size()) {
                  return a.holders.size() < b.holders.size();
                }
                if (a.popularity != b.popularity) {
                  return a.popularity > b.popularity;
                }
                return a.key < b.key;
              });
    for (const DownloadCandidate& cand : candidates) {
      if (static_cast<int>(selected.size()) >= budgetPieces) break;
      selected.emplace_back(
          *std::min_element(cand.holders.begin(), cand.holders.end()),
          &cand);
    }
    return publishDownloadBroadcasts(selected);
  }
  std::unordered_map<NodeId, const DownloadPeer*> peerById;
  std::vector<NodeId> contributorIds;
  for (const DownloadPeer& peer : peers) {
    peerById[peer.id] = &peer;
    if (peer.contributes) contributorIds.push_back(peer.id);
  }
  if (contributorIds.empty()) return {};
  const std::vector<NodeId> order(
      cyclicOrder(std::span<const NodeId>(contributorIds)));
  std::set<PieceKey> sent;
  std::size_t turn = 0;
  int idleTurns = 0;
  while (static_cast<int>(selected.size()) < budgetPieces &&
         idleTurns < static_cast<int>(order.size())) {
    const NodeId sender = order[turn % order.size()];
    ++turn;
    const DownloadPeer& senderPeer = *peerById.at(sender);
    const DownloadCandidate* best = nullptr;
    double bestWeight = -1.0;
    for (const DownloadCandidate& cand : candidates) {
      if (sent.contains(cand.key)) continue;
      if (std::find(cand.holders.begin(), cand.holders.end(), sender) ==
          cand.holders.end()) {
        continue;
      }
      double weight = cand.popularity;
      for (NodeId requester : cand.requesters) {
        weight += 1.0;
        weight += senderPeer.credits != nullptr
                      ? senderPeer.credits->credit(requester)
                      : 0.0;
      }
      if (best == nullptr || weight > bestWeight ||
          (weight == bestWeight && cand.key < best->key)) {
        best = &cand;
        bestWeight = weight;
      }
    }
    if (best == nullptr) {
      ++idleTurns;
      continue;
    }
    idleTurns = 0;
    sent.insert(best->key);
    selected.emplace_back(sender, best);
  }
  return publishDownloadBroadcasts(selected);
}

std::uint32_t PieceStoreReference::allocWords(std::uint32_t words) {
  auto freeIt = freeBlocks_.find(words);
  if (freeIt != freeBlocks_.end() && !freeIt->second.empty()) {
    const std::uint32_t offset = freeIt->second.back();
    freeIt->second.pop_back();
    std::fill_n(arena_.begin() + offset, words, 0);
    return offset;
  }
  const auto offset = static_cast<std::uint32_t>(arena_.size());
  arena_.resize(arena_.size() + words, 0);
  return offset;
}

bool PieceStoreReference::registerFile(FileId file,
                                       std::uint32_t pieceCount) {
  auto [it, inserted] = entries_.try_emplace(file);
  if (inserted) {
    it->second.word = allocWords(wordsFor(pieceCount));
    it->second.pieces = pieceCount;
    it->second.seq = nextSeq_++;
    filesViewStale_ = true;
    return true;
  }
  return it->second.pieces == pieceCount;
}

bool PieceStoreReference::addPiece(FileId file, std::uint32_t piece) {
  Entry& e = entries_.at(file);
  if (bit(e, piece)) return false;
  if (capacity_ && totalHeld_ >= *capacity_) evictOnePiece();
  arena_[e.word + piece / 64] |= std::uint64_t{1} << (piece % 64);
  ++e.held;
  ++totalHeld_;
  return true;
}

std::uint32_t PieceStoreReference::addWholeFile(FileId file) {
  std::uint32_t added = 0;
  for (std::uint32_t p = 0; p < entries_.at(file).pieces; ++p) {
    if (addPiece(file, p)) ++added;
  }
  return added;
}

void PieceStoreReference::removeFile(FileId file) {
  auto it = entries_.find(file);
  if (it == entries_.end()) return;
  totalHeld_ -= it->second.held;
  freeBlocks_[wordsFor(it->second.pieces)].push_back(it->second.word);
  entries_.erase(it);
  filesViewStale_ = true;
}

bool PieceStoreReference::isRegistered(FileId file) const {
  return entries_.contains(file);
}

bool PieceStoreReference::hasPiece(FileId file, std::uint32_t piece) const {
  auto it = entries_.find(file);
  if (it == entries_.end()) return false;
  return piece < it->second.pieces && bit(it->second, piece);
}

bool PieceStoreReference::isComplete(FileId file) const {
  auto it = entries_.find(file);
  return it != entries_.end() && it->second.held == it->second.pieces;
}

std::uint32_t PieceStoreReference::piecesHeld(FileId file) const {
  auto it = entries_.find(file);
  return it == entries_.end() ? 0 : it->second.held;
}

std::uint32_t PieceStoreReference::pieceCount(FileId file) const {
  auto it = entries_.find(file);
  return it == entries_.end() ? 0 : it->second.pieces;
}

const std::vector<FileId>& PieceStoreReference::files() const {
  if (filesViewStale_) {
    filesView_.clear();
    for (const auto& [file, _] : entries_) filesView_.push_back(file);
    std::sort(filesView_.begin(), filesView_.end());
    filesViewStale_ = false;
  }
  return filesView_;
}

std::vector<FileId> PieceStoreReference::completeFiles() const {
  std::vector<FileId> out;
  for (const auto& [file, e] : entries_) {
    if (e.held == e.pieces) out.push_back(file);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PieceStoreReference::setPriority(FileId file, double priority) {
  auto it = entries_.find(file);
  if (it != entries_.end()) it->second.priority = priority;
}

void PieceStoreReference::evictOnePiece() {
  const Entry* victimEntry = nullptr;
  FileId victim;
  auto better = [](const Entry& candidate, const Entry* incumbent) {
    if (incumbent == nullptr) return true;
    if (candidate.priority != incumbent->priority) {
      return candidate.priority < incumbent->priority;
    }
    return candidate.seq < incumbent->seq;
  };
  for (const auto& [file, e] : entries_) {
    if (e.held == 0 || e.held == e.pieces) continue;
    if (better(e, victimEntry)) {
      victimEntry = &e;
      victim = file;
    }
  }
  if (victimEntry == nullptr) {
    for (const auto& [file, e] : entries_) {
      if (e.held == 0) continue;
      if (better(e, victimEntry)) {
        victimEntry = &e;
        victim = file;
      }
    }
  }
  if (victimEntry == nullptr) return;
  Entry& e = entries_[victim];
  for (std::uint32_t p = e.pieces; p > 0; --p) {
    if (bit(e, p - 1)) {
      arena_[e.word + (p - 1) / 64] &= ~(std::uint64_t{1} << ((p - 1) % 64));
      --e.held;
      --totalHeld_;
      return;
    }
  }
}

void PieceStoreReference::saveState(Serializer& out) const {
  out.u64(files().size());
  for (const FileId file : files()) {
    const Entry& e = entries_.at(file);
    out.u32(file.value);
    out.u64(e.pieces);
    for (std::uint32_t p = 0; p < e.pieces; ++p) out.boolean(bit(e, p));
    out.f64(e.priority);
    out.u64(e.seq);
  }
  out.u64(nextSeq_);
}

double CreditLedgerReference::credit(NodeId peer) const {
  auto it = credits_.find(peer);
  return it == credits_.end() ? 0.0 : it->second;
}

void CreditLedgerReference::onReceivedRequested(NodeId peer) {
  credits_[peer] += kRequestedCredit;
}

void CreditLedgerReference::onReceivedUnrequested(NodeId peer,
                                                  Popularity popularity) {
  credits_[peer] += popularity;
}

void CreditLedgerReference::addCredit(NodeId peer, double delta) {
  credits_[peer] += delta;
}

std::vector<std::pair<NodeId, double>> CreditLedgerReference::ranking() const {
  std::vector<std::pair<NodeId, double>> out(credits_.begin(),
                                             credits_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

void CreditLedgerReference::saveState(Serializer& out) const {
  std::vector<std::pair<NodeId, double>> sorted(credits_.begin(),
                                                credits_.end());
  std::sort(sorted.begin(), sorted.end());
  out.u64(sorted.size());
  for (const auto& [peer, credit] : sorted) {
    out.u32(peer.value);
    out.f64(credit);
  }
}

std::vector<RankedMatch> rankMatchesReference(
    const std::string& queryText,
    std::span<const Metadata* const> candidates) {
  std::vector<RankedMatch> out;
  for (const Metadata* md : candidates) {
    if (md == nullptr || !queryMatches(queryText, *md)) continue;
    std::size_t keywordCount = md->keywords.size();
    if (keywordCount == 0) {
      Metadata rebuilt = *md;
      rebuilt.rebuildKeywords();
      keywordCount = rebuilt.keywords.size();
    }
    const double score =
        md->popularity + 0.001 / (1.0 + static_cast<double>(keywordCount));
    out.push_back(RankedMatch{md, score});
  }
  std::sort(out.begin(), out.end(),
            [](const RankedMatch& a, const RankedMatch& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.metadata->file < b.metadata->file;
            });
  return out;
}

std::vector<RankedMatch> searchReference(const InternetServices& internet,
                                         const std::string& queryText,
                                         SimTime now) {
  const FileCatalog& catalog = internet.catalog();
  std::vector<const Metadata*> alive;
  for (const FileId id : catalog.allFiles()) {
    if (catalog.find(id)->alive(now)) alive.push_back(&catalog.metadataFor(id));
  }
  return rankMatchesReference(queryText, alive);
}

const Metadata* bestMatchReference(const std::string& queryText,
                                   const MetadataStore& store) {
  const auto all = store.all();
  const std::vector<const Metadata*> records(all.begin(), all.end());
  const auto ranked = rankMatchesReference(queryText, records);
  return ranked.empty() ? nullptr : ranked.front().metadata;
}

std::string nodeStateBytes(const Node& node) {
  Serializer out;
  StateRefWriter refs;
  node.saveState(out, refs);
  return out.bytes();
}

void loadNodeState(Node& node, const std::string& bytes,
                   MetadataInterner& records, QueryInterner& queries) {
  StateRefReader refs(kCheckpointVersion, records, queries);
  Deserializer in(bytes);
  node.loadState(in, refs);
}

std::vector<std::string> activeQueryTextsReference(const Node& node,
                                                   SimTime now) {
  std::vector<std::string> texts;
  for (const Node::QueryState& qs : node.queryStates()) {
    if (!qs.metadataFound && !qs.query->expired(now)) {
      texts.push_back(qs.query->text);
    }
  }
  return texts;
}

std::vector<SharedQuery> activeQueriesReference(const Node& node,
                                                SimTime now) {
  std::vector<SharedQuery> queries;
  for (const Node::QueryState& qs : node.queryStates()) {
    if (!qs.metadataFound && !qs.query->expired(now)) {
      queries.push_back(qs.query);
    }
  }
  return queries;
}

std::vector<std::vector<std::string>> activeQueryTokensReference(
    const Node& node, SimTime now) {
  std::vector<std::vector<std::string>> tokens;
  for (const Node::QueryState& qs : node.queryStates()) {
    if (!qs.metadataFound && !qs.query->expired(now)) {
      tokens.push_back(qs.query->tokens);
    }
  }
  return tokens;
}

std::vector<FileId> wantedFilesReference(const Node& node, SimTime now) {
  std::set<FileId> wanted;
  for (const Node::QueryState& qs : node.queryStates()) {
    if (qs.metadataFound && !qs.fileFound && !qs.query->expired(now) &&
        !node.pieces().isComplete(qs.chosenFile)) {
      wanted.insert(qs.chosenFile);
    }
  }
  return {wanted.begin(), wanted.end()};
}

bool anyQueryMatchesReference(const Node& node, const Metadata& md,
                              SimTime now) {
  for (const Node::QueryState& qs : node.queryStates()) {
    if (!qs.metadataFound && !qs.query->expired(now) &&
        queryMatches(qs.query->text, md)) {
      return true;
    }
  }
  return false;
}

std::vector<QueryId> metadataSelectionReference(const Node& node,
                                                const Metadata& md,
                                                SimTime now) {
  std::vector<QueryId> selected;
  for (const Node::QueryState& qs : node.queryStates()) {
    if (!qs.metadataFound && !qs.query->expired(now) &&
        queryMatches(qs.query->text, md)) {
      selected.push_back(qs.id);
    }
  }
  return selected;
}

std::vector<QueryId> fileCompletionReference(const Node& node, FileId file,
                                             SimTime now) {
  std::vector<QueryId> satisfied;
  for (const Node::QueryState& qs : node.queryStates()) {
    if (qs.metadataFound && !qs.fileFound && qs.chosenFile == file &&
        !qs.query->expired(now)) {
      satisfied.push_back(qs.id);
    }
  }
  return satisfied;
}

void ReferenceNode::storePeerQueries(NodeId peer,
                                     const std::vector<SharedQuery>& queries,
                                     SimTime now) {
  if (!node.isFrequentContact(peer)) return;
  StoredQueries& stored = peerQueries[peer];
  stored.queries = queries;
  stored.storedAt = now;
}

std::vector<std::string> ReferenceNode::proxiedQueryTexts(SimTime now) const {
  std::set<std::string> texts;
  for (const auto& [peer, stored] : peerQueries) {
    if (now - stored.storedAt > ttl) continue;
    for (const SharedQuery& query : stored.queries) texts.insert(query->text);
  }
  return {texts.begin(), texts.end()};
}

void ReferenceNode::storePeerWants(const std::vector<Uri>& uris,
                                   SimTime now) {
  for (const Uri& uri : uris) peerWants[uri] = now;
}

std::vector<Uri> ReferenceNode::peerWantedUris(SimTime now) const {
  std::vector<Uri> out;
  for (const auto& [uri, when] : peerWants) {
    if (now - when <= ttl) out.push_back(uri);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<std::string>> ReferenceNode::contactQueryTokens(
    SimTime now, bool includeProxied) const {
  std::vector<std::vector<std::string>> tokens =
      activeQueryTokensReference(node, now);
  if (includeProxied) {
    for (const std::string& text : proxiedQueryTexts(now)) {
      tokens.push_back(keywordTokens(text));
    }
  }
  return tokens;
}

void ReferenceNode::expire(SimTime now) {
  node.expire(now);
  const SimTime horizon = now - ttl;
  std::erase_if(peerQueries, [&](const auto& kv) {
    return kv.second.storedAt < horizon;
  });
  std::erase_if(peerWants,
                [&](const auto& kv) { return kv.second < horizon; });
}

std::string ReferenceNode::saveState(const FileCatalog& catalog) const {
  StateRefWriter refs;
  Serializer out;
  node.saveState(out, refs);
  std::string bytes = out.bytes();
  // The node's own cooperative sections are empty: two zero counts.
  const std::string empty(16, '\0');
  if (bytes.size() < empty.size() ||
      bytes.compare(bytes.size() - empty.size(), empty.size(), empty) != 0) {
    throw std::logic_error("ReferenceNode: the node stored cooperative state");
  }
  bytes.resize(bytes.size() - empty.size());

  // Stored lists follow the node's own queries in the query table; an
  // empty list is not saved.
  Serializer coop;
  std::vector<std::pair<NodeId, const StoredQueries*>> stored;
  for (const auto& [peer, sq] : peerQueries) {
    if (!sq.queries.empty()) stored.emplace_back(peer, &sq);
  }
  std::sort(stored.begin(), stored.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  coop.u64(stored.size());
  for (const auto& [peer, sq] : stored) {
    coop.u32(peer.value);
    coop.u64(sq->queries.size());
    for (const SharedQuery& query : sq->queries) refs.query(coop, *query);
    coop.i64(sq->storedAt);
  }
  std::map<FileId, SimTime> wants;
  for (const auto& [uri, when] : peerWants) {
    const FileInfo* info = catalog.findByUri(uri);
    if (info == nullptr) {
      throw std::logic_error("ReferenceNode: a peer want the catalog lacks");
    }
    wants.emplace(info->id, when);
  }
  coop.u64(wants.size());
  for (const auto& [file, when] : wants) {
    coop.u32(file.value);
    coop.i64(when);
  }
  return bytes + coop.bytes();
}

void exchangeHellosReference(std::span<ReferenceNode* const> members,
                             const ProtocolConfig& protocol,
                             const FileCatalog& catalog, SimTime now) {
  if (protocol.distributesQueries()) {
    for (std::size_t j = 0; j < members.size(); ++j) {
      const Node& peer = members[j]->node;
      if (!peer.contributes()) continue;
      const std::vector<SharedQuery> queries =
          activeQueriesReference(peer, now);
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != j) members[i]->storePeerQueries(peer.id(), queries, now);
      }
    }
  }
  if (!protocol.distributesMetadata()) return;
  struct Advert {
    std::size_t first;
    bool shared;
  };
  std::unordered_map<std::string_view, Advert> adverts;
  auto advertise = [&](std::string_view uri, std::size_t member) {
    auto [it, inserted] = adverts.try_emplace(uri, Advert{member, false});
    if (!inserted && it->second.first != member) it->second.shared = true;
  };
  for (std::size_t i = 0; i < members.size(); ++i) {
    const ReferenceNode& member = *members[i];
    for (FileId file : member.node.wantedFilesView(now)) {
      const FileInfo* info = catalog.find(file);
      if (info != nullptr) advertise(info->uri, i);
    }
    if (protocol.distributesQueries()) {
      for (const auto& [uri, when] : member.peerWants) {
        if (now - when <= member.ttl) advertise(uri, i);
      }
    }
  }
  // Copies: the stores below rehash the maps the views point into.
  std::vector<std::pair<Uri, Advert>> all(adverts.begin(), adverts.end());
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (const auto& [uri, advert] : all) {
      if (advert.shared || advert.first != i) {
        members[i]->storePeerWants({uri}, now);
      }
    }
  }
}

void AccessSyncReference::beginEpoch(SimTime publishAt) {
  lastPublishAt_ = publishAt;
  const std::size_t alive = internet_.catalog().aliveFiles(publishAt).size();
  const auto stock = std::min(
      AccessSync::kStockLimit,
      std::max<std::size_t>(
          10, static_cast<std::size_t>(AccessSync::kStockFraction *
                                       static_cast<double>(alive))));
  topPopular_ = internet_.topPopular(publishAt, stock);
}

void AccessSyncReference::sync(ReferenceNode& member, SimTime now,
                               AccessSync::Host& host) {
  if (lastPublishAt_ < 0) return;
  Node& node = member.node;
  auto acceptFromServer = [&](const SharedMetadata& md) {
    if (md->expired(now)) return;
    const bool isNew = !node.metadata().has(md->file);
    host.storeMetadata(node, md, now);
    if (isNew && node.metadata().has(md->file)) {
      host.gotMetadata(node, md->file, now);
    }
  };

  std::vector<std::string> texts = activeQueryTextsReference(node, now);
  if (config_.searchProxiedQueries) {
    for (const std::string& text : member.proxiedQueryTexts(now)) {
      texts.push_back(text);
    }
  }
  if (searchCache_.size() <= node.id().value) {
    searchCache_.resize(node.id().value + 1);
  }
  auto& searched = searchCache_[node.id().value];
  for (const std::string& text : texts) {
    auto it = searched.find(text);
    if (it != searched.end() && it->second >= lastPublishAt_) continue;
    searched[text] = now;
    const auto ranked = searchReference(internet_, text, now);
    const std::size_t take = std::min<std::size_t>(3, ranked.size());
    for (std::size_t i = 0; i < take; ++i) {
      acceptFromServer(
          internet_.catalog().sharedMetadataFor(ranked[i].metadata->file));
    }
  }

  if (config_.takeCarryStock) {
    for (const SharedMetadata& md : topPopular_) acceptFromServer(md);
  }

  for (FileId file : node.wantedFilesView(now)) {
    host.deliverWholeFile(node, file, now);
  }

  if (config_.fetchPeerWants) {
    for (const Uri& uri : member.peerWantedUris(now)) {
      const FileInfo* info = internet_.catalog().findByUri(uri);
      if (info == nullptr) continue;
      const SharedMetadata& md = internet_.catalog().sharedMetadataFor(info->id);
      if (md == nullptr || md->expired(now)) continue;
      acceptFromServer(md);
      host.deliverWholeFile(node, md->file, now);
    }
  }
}

void AccessSyncReference::saveState(Serializer& out,
                                    std::size_t nodeCount) const {
  out.i64(lastPublishAt_);
  out.u64(nodeCount);
  for (std::size_t id = 0; id < nodeCount; ++id) {
    std::vector<std::pair<std::string, SimTime>> sorted;
    if (id < searchCache_.size()) {
      sorted.assign(searchCache_[id].begin(), searchCache_[id].end());
    }
    std::sort(sorted.begin(), sorted.end());
    out.u64(sorted.size());
    for (const auto& [text, at] : sorted) {
      out.str(text);
      out.i64(at);
    }
  }
}

namespace coding {

GenerationDecoderReference::GenerationDecoderReference(
    std::uint32_t generationSize, std::uint32_t payloadBytes)
    : k_(generationSize),
      payloadBytes_(payloadBytes),
      pivot_(generationSize, kNoPivot) {}

bool GenerationDecoderReference::addFrame(
    std::span<const std::uint8_t> coefficients,
    std::span<const std::uint8_t> payload, bool polluted,
    std::uint32_t origin) {
  if (coefficients.size() > k_) {
    ++degenerateFrames_;
    return false;
  }
  if (coefficients.size() != k_ || payload.size() != payloadBytes_) {
    throw std::invalid_argument("GenerationDecoderReference: frame shape");
  }
  bool anyNonZero = false;
  for (std::uint8_t c : coefficients) {
    if (c != 0) {
      anyNonZero = true;
      break;
    }
  }
  if (!anyNonZero) {
    ++degenerateFrames_;
    return false;
  }
  return fold({coefficients.begin(), coefficients.end()},
              {payload.begin(), payload.end()}, polluted, origin);
}

bool GenerationDecoderReference::addSourcePiece(
    std::uint32_t piece, std::span<const std::uint8_t> payload) {
  if (piece >= k_ || payload.size() != payloadBytes_) {
    throw std::invalid_argument("GenerationDecoderReference: source piece");
  }
  std::vector<std::uint8_t> unit(k_, 0);
  unit[piece] = 1;
  return fold(std::move(unit), {payload.begin(), payload.end()}, false,
              GenerationDecoder::kNoOrigin);
}

bool GenerationDecoderReference::fold(std::vector<std::uint8_t> coeffs,
                                      std::vector<std::uint8_t> data,
                                      bool polluted, std::uint32_t origin) {
  bool tainted = polluted;
  for (std::uint32_t col = 0; col < k_; ++col) {
    const std::uint8_t factor = coeffs[col];
    if (factor == 0 || pivot_[col] == kNoPivot) continue;
    const Row& prow = rows_[pivot_[col]];
    if (prow.tainted) tainted = true;
    for (std::uint32_t j = 0; j < k_; ++j) {
      coeffs[j] = gfAdd(coeffs[j], gfMul(factor, prow.coeffs[j]));
    }
    for (std::size_t j = 0; j < data.size(); ++j) {
      data[j] = gfAdd(data[j], gfMul(factor, prow.payload[j]));
    }
    ++rowOps_;
  }
  std::uint32_t pivotCol = kNoPivot;
  for (std::uint32_t col = 0; col < k_; ++col) {
    if (coeffs[col] != 0) {
      pivotCol = col;
      break;
    }
  }
  if (pivotCol == kNoPivot) return false;

  const std::uint8_t inv = gfInv(coeffs[pivotCol]);
  if (inv != 1) {
    for (std::uint32_t j = 0; j < k_; ++j) coeffs[j] = gfMul(coeffs[j], inv);
    for (std::size_t j = 0; j < data.size(); ++j) {
      data[j] = gfMul(data[j], inv);
    }
    ++rowOps_;
  }
  const std::uint32_t newIndex = static_cast<std::uint32_t>(rows_.size());
  for (Row& row : rows_) {
    const std::uint8_t factor = row.coeffs[pivotCol];
    if (factor == 0) continue;
    if (tainted) row.tainted = true;
    for (std::uint32_t j = 0; j < k_; ++j) {
      row.coeffs[j] = gfAdd(row.coeffs[j], gfMul(factor, coeffs[j]));
    }
    for (std::size_t j = 0; j < data.size(); ++j) {
      row.payload[j] = gfAdd(row.payload[j], gfMul(factor, data[j]));
    }
    ++rowOps_;
  }
  rows_.push_back({std::move(coeffs), std::move(data), tainted, polluted,
                   polluted ? origin : GenerationDecoder::kNoOrigin});
  pivot_[pivotCol] = newIndex;
  ++rank_;
  return true;
}

bool GenerationDecoderReference::tainted() const {
  for (const Row& row : rows_) {
    if (row.tainted) return true;
  }
  return false;
}

std::uint32_t GenerationDecoderReference::pollutedRows() const {
  std::uint32_t count = 0;
  for (const Row& row : rows_) {
    if (row.polluted) ++count;
  }
  return count;
}

std::vector<std::uint32_t> GenerationDecoderReference::pollutedOrigins()
    const {
  std::vector<std::uint32_t> origins;
  for (const Row& row : rows_) {
    if (row.polluted && row.origin != GenerationDecoder::kNoOrigin) {
      origins.push_back(row.origin);
    }
  }
  std::sort(origins.begin(), origins.end());
  origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
  return origins;
}

std::vector<std::uint8_t> GenerationDecoderReference::recodeCoefficients(
    std::uint64_t seed, double sparsity,
    std::vector<std::uint8_t>* payloadOut, bool* taintedOut) const {
  std::vector<std::uint8_t> out(k_, 0);
  if (payloadOut != nullptr) payloadOut->assign(payloadBytes_, 0);
  if (taintedOut != nullptr) *taintedOut = false;
  if (rank_ == 0) return out;
  const std::vector<std::uint8_t> mix =
      sparseCoefficients(rank_, seed, sparsity);
  for (std::uint32_t i = 0; i < rank_; ++i) {
    const std::uint8_t factor = mix[i];
    if (factor == 0) continue;
    const Row& row = rows_[i];
    if (taintedOut != nullptr && row.tainted) *taintedOut = true;
    for (std::uint32_t j = 0; j < k_; ++j) {
      out[j] = gfAdd(out[j], gfMul(factor, row.coeffs[j]));
    }
    if (payloadOut != nullptr) {
      for (std::uint32_t j = 0; j < payloadBytes_; ++j) {
        (*payloadOut)[j] =
            gfAdd((*payloadOut)[j], gfMul(factor, row.payload[j]));
      }
    }
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> GenerationDecoderReference::decode()
    const {
  if (!complete()) {
    throw std::logic_error("GenerationDecoderReference::decode before rank");
  }
  std::vector<std::vector<std::uint8_t>> pieces(k_);
  for (std::uint32_t col = 0; col < k_; ++col) {
    pieces[col] = rows_[pivot_[col]].payload;
  }
  return pieces;
}

void GenerationDecoderReference::saveState(Serializer& out) const {
  out.u32(k_);
  out.u32(payloadBytes_);
  out.u32(rank_);
  out.u64(rowOps_);
  out.u64(degenerateFrames_);
  out.u64(rows_.size());
  for (const Row& row : rows_) {
    out.raw(row.coeffs.data(), row.coeffs.size());
    out.raw(row.payload.data(), row.payload.size());
    out.u8(row.tainted ? 1 : 0);
    out.u8(row.polluted ? 1 : 0);
    out.u32(row.origin);
  }
  for (std::uint32_t col = 0; col < k_; ++col) out.u32(pivot_[col]);
}

}  // namespace coding
}  // namespace core

namespace trace {

std::vector<NodePair> frequentContactPairsReference(const ContactTrace& trace,
                                                    Duration period) {
  const SimTime span = trace.endTime();
  if (span <= 0 || period <= 0) return {};
  std::size_t windows = static_cast<std::size_t>(span / period);
  if (span % period >= period / 2 || windows == 0) ++windows;

  std::map<NodePair, std::set<std::size_t>> covered;
  for (const Contact& c : trace.contacts()) {
    const auto firstWindow = static_cast<std::size_t>(c.start / period);
    const auto lastWindow = static_cast<std::size_t>((c.end - 1) / period);
    for (std::size_t i = 0; i < c.members.size(); ++i) {
      for (std::size_t j = i + 1; j < c.members.size(); ++j) {
        auto& windowsOf = covered[makePair(c.members[i], c.members[j])];
        for (std::size_t w = firstWindow; w <= lastWindow && w < windows;
             ++w) {
          windowsOf.insert(w);
        }
      }
    }
  }
  std::vector<NodePair> out;
  for (const auto& [pair, windowsOf] : covered) {
    if (windowsOf.size() >= windows) out.push_back(pair);
  }
  return out;
}

}  // namespace trace
}  // namespace hdtn
