#include "src/core/node.hpp"

#include <algorithm>
#include <set>

#include "src/core/file_catalog.hpp"
#include "src/core/protocol.hpp"
#include "src/util/string_util.hpp"

namespace hdtn::core {

Node::Node(NodeId id, NodeOptions options)
    : id_(id),
      metadata_(options.metadataCapacity > 0
                    ? MetadataStore(options.metadataCapacity)
                    : MetadataStore()),
      pieces_(options.pieceCapacity > 0 ? PieceStore(options.pieceCapacity)
                                        : PieceStore()),
      internetAccess_(options.internetAccess),
      freeRider_(options.freeRider),
      forger_(options.forger) {}

void Node::addQuery(QueryId id, SharedQuery query) {
  QueryState& state = queries_.emplace_back();
  state.query = std::move(query);
  state.id = id;
  touch();
}

void Node::addQuery(const Query& query) {
  addQuery(query.id, std::make_shared<const FileQuery>(
                         query.text, query.target, query.issuedAt, query.ttl));
}

std::size_t Node::firstLiveQuery(SimTime now) const {
  if (now < prefixExpiresBy_) return 0;
  while (firstLive_ < queries_.size() &&
         queries_[firstLive_].query->expired(now)) {
    prefixExpiresBy_ =
        std::max(prefixExpiresBy_, queries_[firstLive_].query->expiresAt());
    ++firstLive_;
  }
  return firstLive_;
}

std::vector<std::string> Node::activeQueryTexts(SimTime now) const {
  std::vector<std::string> texts;
  for (const QueryState& qs : liveQueries(now)) {
    if (qs.metadataFound || qs.query->expired(now)) continue;
    texts.push_back(qs.query->text);
  }
  return texts;
}

std::vector<std::vector<std::string>> Node::activeQueryTokens(
    SimTime now) const {
  std::vector<std::vector<std::string>> tokens;
  for (const QueryState& qs : liveQueries(now)) {
    if (qs.metadataFound || qs.query->expired(now)) continue;
    tokens.push_back(qs.query->tokens);
  }
  return tokens;
}

std::vector<FileId> Node::wantedFilesView(SimTime now) const {
  std::vector<FileId> wanted;
  for (const QueryState& qs : liveQueries(now)) {
    if (!qs.metadataFound || qs.fileFound || qs.query->expired(now)) {
      continue;
    }
    if (pieces_.isComplete(qs.chosenFile)) continue;
    wanted.push_back(qs.chosenFile);
  }
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  return wanted;
}

bool Node::anyQueryMatches(const Metadata& md, SimTime now) const {
  return std::ranges::any_of(liveQueries(now), [&](const QueryState& qs) {
    return !qs.metadataFound && !qs.query->expired(now) &&
           queryTokensMatch(qs.query->tokens, md);
  });
}

std::vector<QueryId> Node::acceptMetadata(const SharedMetadata& shared,
                                          SimTime now, SharedMetadata* shed) {
  const Metadata& md = *shared;
  std::vector<QueryId> selected;
  if (md.expired(now)) return selected;
  touch();
  metadata_.add(shared, shed);
  // A bounded store may shed the incoming record under capacity pressure;
  // a record that was never stored must not be selected for download.
  if (!metadata_.has(md.file)) return selected;
  for (QueryState& qs : liveQueries(now)) {
    if (qs.metadataFound || qs.query->expired(now)) continue;
    if (!queryTokensMatch(qs.query->tokens, md)) continue;
    // The simulated user examines the match and selects it for download.
    qs.metadataFound = true;
    qs.chosenFile = md.file;
    pieces_.registerFile(md.file, md.pieceCount());
    pieces_.setPriority(md.file, md.popularity);
    selected.push_back(qs.id);
  }
  return selected;
}

std::vector<QueryId> Node::acceptPiece(FileId file, std::uint32_t piece,
                                       std::uint32_t pieceCount,
                                       SimTime now) {
  std::vector<QueryId> satisfied;
  pieces_.registerFile(file, pieceCount);
  pieces_.addPiece(file, piece);
  if (!pieces_.isComplete(file)) return satisfied;
  touch();
  for (QueryState& qs : liveQueries(now)) {
    if (!qs.metadataFound || qs.fileFound || qs.chosenFile != file) continue;
    if (qs.query->expired(now)) continue;
    qs.fileFound = true;
    satisfied.push_back(qs.id);
  }
  return satisfied;
}

void Node::rejectMetadata(FileId file) {
  rejections_.getOrCreate().files.insert(file);
}

const std::unordered_set<FileId>& Node::rejectedMetadata() const {
  static const std::unordered_set<FileId> kNone;
  return rejections_ ? rejections_->files : kNone;
}

void Node::noteRejectedFrom(NodeId sender) {
  Rejections& rejections = rejections_.getOrCreate();
  if (++rejections.offences[sender] >= kDistrustThreshold) {
    rejections.distrusted.insert(sender);
  }
}

const std::unordered_set<NodeId>& Node::distrustedPeers() const {
  static const std::unordered_set<NodeId> kNone;
  return rejections_ ? rejections_->distrusted : kNone;
}

void Node::expire(SimTime now) {
  metadata_.expire(now);
  // A stamp is stale when now - stamp > ttl, i.e. stamp < horizon; a
  // watermark at or past the horizon proves its map holds nothing stale.
  const SimTime horizon = now - cooperativeTtl_;
  if (proxy_ && proxy_->oldestStamp < horizon) {
    const auto dropped =
        std::erase_if(proxy_->peerQueries, [&](const auto& kv) {
          return kv.second.storedAt < horizon;
        });
    proxy_->oldestStamp = kNoStamp;
    for (const auto& [peer, stored] : proxy_->peerQueries) {
      proxy_->oldestStamp = std::min(proxy_->oldestStamp, stored.storedAt);
    }
    if (dropped > 0) touch();
  }
  if (oldestWantStamp_ < horizon) {
    std::erase_if(peerWants_,
                  [&](const auto& kv) { return kv.second < horizon; });
    oldestWantStamp_ = kNoStamp;
    for (const auto& [uri, when] : peerWants_) {
      oldestWantStamp_ = std::min(oldestWantStamp_, when);
    }
  }
}

void Node::setFrequentContacts(std::vector<NodeId> contacts) {
  if (contacts.empty() && !proxy_) return;
  std::sort(contacts.begin(), contacts.end());
  proxy_.getOrCreate().frequentContacts = std::move(contacts);
}

bool Node::isFrequentContact(NodeId peer) const {
  return proxy_ &&
         std::binary_search(proxy_->frequentContacts.begin(),
                            proxy_->frequentContacts.end(), peer);
}

void Node::storePeerQueries(NodeId peer, const std::vector<std::string>& texts,
                            SimTime now) {
  if (!isFrequentContact(peer)) return;
  ProxyState::StoredQueries& stored = proxy_->peerQueries[peer];
  stored.texts = texts;
  stored.storedAt = now;
  proxy_->oldestStamp = std::min(proxy_->oldestStamp, now);
  touch();
}

std::vector<std::string> Node::proxiedQueryTexts(SimTime now) const {
  if (!proxy_) return {};
  std::set<std::string> texts;
  for (const auto& [peer, stored] : proxy_->peerQueries) {
    if (now - stored.storedAt > cooperativeTtl_) continue;
    texts.insert(stored.texts.begin(), stored.texts.end());
  }
  return {texts.begin(), texts.end()};
}

void Node::storePeerWants(const std::vector<Uri>& uris, SimTime now) {
  for (const Uri& uri : uris) storePeerWant(uri, now);
}

void Node::storePeerWant(std::string_view uri, SimTime now) {
  if (auto it = peerWants_.find(uri); it != peerWants_.end()) {
    it->second = now;
  } else {
    peerWants_.emplace(uri, now);
  }
  oldestWantStamp_ = std::min(oldestWantStamp_, now);
}

std::vector<Uri> Node::peerWantedUris(SimTime now) const {
  std::vector<Uri> out;
  for (const auto& [uri, when] : peerWants_) {
    if (now - when > cooperativeTtl_) continue;
    out.push_back(uri);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Node::saveState(Serializer& out) const {
  metadata_.saveState(out);
  pieces_.saveState(out);
  credits_.saveState(out);

  // Each query's fields come from its shared object; the owner is always
  // this node.
  out.u64(queries_.size());
  for (const QueryState& qs : queries_) {
    out.u32(qs.id.value);
    out.u32(id_.value);
    out.str(qs.query->text);
    out.u32(qs.query->target.value);
    out.i64(qs.query->issuedAt);
    out.i64(qs.query->ttl);
    out.boolean(qs.metadataFound);
    out.u32(qs.chosenFile.value);
    out.boolean(qs.fileFound);
  }

  // Unordered containers are written in sorted order so checkpoint bytes
  // are deterministic (iteration order is behavior-neutral elsewhere).
  std::vector<FileId> rejected(rejectedMetadata().begin(),
                               rejectedMetadata().end());
  std::sort(rejected.begin(), rejected.end());
  out.u64(rejected.size());
  for (const FileId file : rejected) out.u32(file.value);

  std::vector<std::pair<NodeId, int>> offences;
  if (rejections_) {
    offences.assign(rejections_->offences.begin(),
                    rejections_->offences.end());
  }
  std::sort(offences.begin(), offences.end());
  out.u64(offences.size());
  for (const auto& [peer, count] : offences) {
    out.u32(peer.value);
    out.i64(count);
  }

  std::vector<NodeId> distrusted(distrustedPeers().begin(),
                                 distrustedPeers().end());
  std::sort(distrusted.begin(), distrusted.end());
  out.u64(distrusted.size());
  for (const NodeId peer : distrusted) out.u32(peer.value);

  std::vector<std::pair<NodeId, const ProxyState::StoredQueries*>> stored;
  if (proxy_) {
    stored.reserve(proxy_->peerQueries.size());
    for (const auto& [peer, sq] : proxy_->peerQueries) {
      stored.emplace_back(peer, &sq);
    }
  }
  std::sort(stored.begin(), stored.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.u64(stored.size());
  for (const auto& [peer, sq] : stored) {
    out.u32(peer.value);
    out.u64(sq->texts.size());
    for (const std::string& text : sq->texts) out.str(text);
    out.i64(sq->storedAt);
  }

  // Views, not copies: the URIs stay in the map while they are sorted.
  std::vector<std::pair<std::string_view, SimTime>> wants(peerWants_.begin(),
                                                          peerWants_.end());
  std::sort(wants.begin(), wants.end());
  out.u64(wants.size());
  for (const auto& [uri, when] : wants) {
    out.str(uri);
    out.i64(when);
  }
}

void Node::loadState(Deserializer& in, MetadataInterner& records,
                     QueryInterner& queries) {
  metadata_.loadState(in, records);
  pieces_.loadState(in);
  credits_.loadState(in);

  queries_.clear();
  firstLive_ = 0;
  prefixExpiresBy_ = std::numeric_limits<SimTime>::min();
  const std::size_t queryCount = in.length();
  queries_.reserve(queryCount);
  for (std::size_t i = 0; i < queryCount; ++i) {
    QueryState qs;
    qs.id = QueryId{in.u32()};
    in.u32();  // owner: this node
    std::string text = in.str();
    const FileId target{in.u32()};
    const SimTime issuedAt = in.i64();
    const Duration ttl = in.i64();
    qs.query = queries.intern(std::move(text), target, issuedAt, ttl);
    qs.metadataFound = in.boolean();
    qs.chosenFile = FileId{in.u32()};
    qs.fileFound = in.boolean();
    queries_.push_back(std::move(qs));
  }

  rejections_.reset();
  const std::size_t rejectedCount = in.length();
  for (std::size_t i = 0; i < rejectedCount; ++i) {
    rejectMetadata(FileId{in.u32()});
  }
  const std::size_t offenceCount = in.length();
  for (std::size_t i = 0; i < offenceCount; ++i) {
    const NodeId peer{in.u32()};
    rejections_.getOrCreate().offences[peer] = static_cast<int>(in.i64());
  }
  const std::size_t distrustCount = in.length();
  for (std::size_t i = 0; i < distrustCount; ++i) {
    rejections_.getOrCreate().distrusted.insert(NodeId{in.u32()});
  }

  if (proxy_) {
    proxy_->peerQueries.clear();
    proxy_->oldestStamp = kNoStamp;
  }
  const std::size_t storedCount = in.length();
  for (std::size_t i = 0; i < storedCount; ++i) {
    const NodeId peer{in.u32()};
    ProxyState::StoredQueries sq;
    sq.texts.resize(in.length());
    for (std::string& text : sq.texts) text = in.str();
    sq.storedAt = in.i64();
    ProxyState& proxyState = proxy_.getOrCreate();
    proxyState.oldestStamp = std::min(proxyState.oldestStamp, sq.storedAt);
    proxyState.peerQueries.emplace(peer, std::move(sq));
  }

  peerWants_.clear();
  oldestWantStamp_ = kNoStamp;
  const std::size_t wantCount = in.length();
  for (std::size_t i = 0; i < wantCount; ++i) {
    Uri uri = in.str();
    const SimTime when = in.i64();
    oldestWantStamp_ = std::min(oldestWantStamp_, when);
    peerWants_[std::move(uri)] = when;
  }

  touch();
}

void exchangeHellos(std::span<Node* const> members,
                    const ProtocolConfig& protocol, const FileCatalog& catalog,
                    SimTime now, ContactViews& views) {
  if (protocol.distributesQueries()) {
    // `texts` views the peer's cached slot; storePeerQueries never
    // recomputes it.
    for (std::size_t j = 0; j < members.size(); ++j) {
      const Node& peer = *members[j];
      if (!peer.contributes()) continue;
      const std::vector<std::string>& texts =
          views.activeQueryTexts(peer, now);
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != j) members[i]->storePeerQueries(peer.id(), texts, now);
      }
    }
  }
  // Wanted URIs exist only when metadata circulates; they ride on hellos.
  if (!protocol.distributesMetadata()) return;

  // Every advertised URI once, with its first advertiser and whether another
  // member advertised it too. Views point at catalog URIs and at members'
  // peerWants_ keys; both outlive the exchange, and the keys stay put while
  // the stores below insert (the map is node-based and nothing is erased).
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
    const Node& node = *members[i];
    for (FileId file : views.wantedFiles(node, now)) {
      const FileInfo* info = catalog.find(file);
      if (info != nullptr) advertise(info->uri, i);
    }
    // Under MBT, stored "requesting URIs" of peers are re-advertised, so a
    // request can travel multiple hops toward an access node.
    if (protocol.distributesQueries()) {
      for (const auto& [uri, when] : node.peerWants_) {
        if (now - when <= node.cooperativeTtl_) advertise(uri, i);
      }
    }
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (const auto& [uri, advert] : adverts) {
      if (advert.shared || advert.first != i) {
        members[i]->storePeerWant(uri, now);
      }
    }
  }
}

void exchangeHellos(std::span<Node* const> members,
                    const ProtocolConfig& protocol, const FileCatalog& catalog,
                    SimTime now) {
  ContactViews views;
  exchangeHellos(members, protocol, catalog, now, views);
}

ContactViews::Slot& ContactViews::slot(const Node& node) {
  const std::uint32_t id = node.id().value;
  if (id >= slotOf_.size()) slotOf_.resize(id + 1, 0);
  std::uint32_t& index = slotOf_[id];
  if (index < used_ && slots_[index].node == &node) return slots_[index];
  if (used_ == slots_.size()) slots_.emplace_back();
  index = static_cast<std::uint32_t>(used_++);
  Slot& fresh = slots_[index];
  fresh.node = &node;
  fresh.activeTexts.generation = 0;
  fresh.proxiedTexts.generation = 0;
  fresh.ownTokens.generation = 0;
  fresh.combinedTokens.generation = 0;
  fresh.wanted.generation = 0;
  return fresh;
}

namespace {

// `cache.value`, recomputed with `build()` unless current for (node, now).
template <typename Cache, typename Build>
const auto& refreshed(Cache& cache, const Node& node, SimTime now,
                      Build&& build) {
  if (cache.generation != node.stateGeneration() || cache.at != now) {
    cache.value = build();
    cache.generation = node.stateGeneration();
    cache.at = now;
  }
  return cache.value;
}

}  // namespace

const std::vector<std::string>& ContactViews::activeQueryTexts(
    const Node& node, SimTime now) {
  return refreshed(slot(node).activeTexts, node, now,
                   [&] { return node.activeQueryTexts(now); });
}

const std::vector<std::string>& ContactViews::proxiedQueryTexts(
    const Node& node, SimTime now) {
  return refreshed(slot(node).proxiedTexts, node, now,
                   [&] { return node.proxiedQueryTexts(now); });
}

const std::vector<std::vector<std::string>>& ContactViews::contactQueryTokens(
    const Node& node, SimTime now, bool includeProxied) {
  Slot& s = slot(node);
  const auto& own = refreshed(s.ownTokens, node, now,
                              [&] { return node.activeQueryTokens(now); });
  if (!includeProxied) return own;
  return refreshed(s.combinedTokens, node, now, [&] {
    std::vector<std::vector<std::string>> tokens = own;
    for (const std::string& text : proxiedQueryTexts(node, now)) {
      tokens.push_back(keywordTokens(text));
    }
    return tokens;
  });
}

const std::vector<FileId>& ContactViews::wantedFiles(const Node& node,
                                                     SimTime now) {
  // Completing a file and selecting metadata both touch(); a piece arriving
  // without completing the file leaves the wanted set unchanged, so the
  // (generation, now) key is sound.
  return refreshed(slot(node).wanted, node, now,
                   [&] { return node.wantedFilesView(now); });
}

}  // namespace hdtn::core
