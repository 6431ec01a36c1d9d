#include "src/core/node.hpp"

#include <algorithm>
#include <set>

#include "src/core/file_catalog.hpp"
#include "src/core/protocol.hpp"
#include "src/util/string_util.hpp"

namespace hdtn::core {

Node::Node(NodeId id, NodeOptions options)
    : id_(id),
      options_(options),
      metadata_(options.metadataCapacity > 0
                    ? MetadataStore(options.metadataCapacity)
                    : MetadataStore()),
      pieces_(options.pieceCapacity > 0 ? PieceStore(options.pieceCapacity)
                                        : PieceStore()) {}

void Node::addQuery(const Query& query) {
  QueryState state;
  state.query = query;
  state.tokens = keywordTokens(query.text);
  queries_.push_back(std::move(state));
  touch();
}

const std::vector<std::string>& Node::activeQueryTexts(SimTime now) const {
  auto& cache = activeTextsCache_;
  if (cache.generation != stateGen_ || cache.at != now) {
    cache.value.clear();
    for (const QueryState& qs : queries_) {
      if (qs.metadataFound || qs.query.expired(now)) continue;
      cache.value.push_back(qs.query.text);
    }
    cache.generation = stateGen_;
    cache.at = now;
  }
  return cache.value;
}

const std::vector<std::vector<std::string>>& Node::contactQueryTokens(
    SimTime now, bool includeProxied) const {
  auto& own = ownTokensCache_;
  if (own.generation != stateGen_ || own.at != now) {
    own.value.clear();
    for (const QueryState& qs : queries_) {
      if (qs.metadataFound || qs.query.expired(now)) continue;
      own.value.push_back(qs.tokens);
    }
    own.generation = stateGen_;
    own.at = now;
  }
  if (!includeProxied) return own.value;

  auto& combined = combinedTokensCache_;
  if (combined.generation != stateGen_ || combined.at != now) {
    combined.value = own.value;
    for (const std::string& text : proxiedQueryTexts(now)) {
      combined.value.push_back(keywordTokens(text));
    }
    combined.generation = stateGen_;
    combined.at = now;
  }
  return combined.value;
}

const std::vector<FileId>& Node::wantedFilesView(SimTime now) const {
  // Completing a file and selecting metadata both touch(); a piece arriving
  // without completing the file leaves the wanted set unchanged, so the
  // (generation, now) key is sound.
  auto& cache = wantedCache_;
  if (cache.generation != stateGen_ || cache.at != now) {
    std::set<FileId> wanted;
    for (const QueryState& qs : queries_) {
      if (!qs.metadataFound || qs.fileFound || qs.query.expired(now)) {
        continue;
      }
      if (pieces_.isComplete(qs.chosenFile)) continue;
      wanted.insert(qs.chosenFile);
    }
    cache.value.assign(wanted.begin(), wanted.end());
    cache.generation = stateGen_;
    cache.at = now;
  }
  return cache.value;
}

bool Node::anyQueryMatches(const Metadata& md, SimTime now) const {
  return std::any_of(queries_.begin(), queries_.end(),
                     [&](const QueryState& qs) {
                       return !qs.metadataFound && !qs.query.expired(now) &&
                              queryTokensMatch(qs.tokens, md);
                     });
}

std::vector<QueryId> Node::acceptMetadata(const SharedMetadata& shared,
                                          SimTime now) {
  const Metadata& md = *shared;
  std::vector<QueryId> selected;
  if (md.expired(now)) return selected;
  if (verifier_ && !verifier_(md)) {
    rejectedMetadata_.insert(md.file);
    return selected;
  }
  touch();
  metadata_.add(shared);
  // A bounded store may shed the incoming record under capacity pressure;
  // a record that was never stored must not be selected for download.
  if (!metadata_.has(md.file)) return selected;
  for (QueryState& qs : queries_) {
    if (qs.metadataFound || qs.query.expired(now)) continue;
    if (!queryTokensMatch(qs.tokens, md)) continue;
    // The simulated user examines the match and selects it for download.
    qs.metadataFound = true;
    qs.chosenFile = md.file;
    pieces_.registerFile(md.file, md.pieceCount());
    pieces_.setPriority(md.file, md.popularity);
    selected.push_back(qs.query.id);
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
  for (QueryState& qs : queries_) {
    if (!qs.metadataFound || qs.fileFound || qs.chosenFile != file) continue;
    if (qs.query.expired(now)) continue;
    qs.fileFound = true;
    satisfied.push_back(qs.query.id);
  }
  return satisfied;
}

void Node::noteRejectedFrom(NodeId sender) {
  if (++rejectionsFrom_[sender] >= kDistrustThreshold) {
    distrustedPeers_.insert(sender);
  }
}

void Node::expire(SimTime now) {
  metadata_.expire(now);
  // A stamp is stale when now - stamp > ttl, i.e. stamp < horizon; a
  // watermark at or past the horizon proves its map holds nothing stale.
  const SimTime horizon = now - cooperativeTtl_;
  if (oldestQueryStamp_ < horizon) {
    const auto dropped = std::erase_if(peerQueries_, [&](const auto& kv) {
      return kv.second.storedAt < horizon;
    });
    oldestQueryStamp_ = kNoStamp;
    for (const auto& [peer, stored] : peerQueries_) {
      oldestQueryStamp_ = std::min(oldestQueryStamp_, stored.storedAt);
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
  std::sort(contacts.begin(), contacts.end());
  frequentContacts_ = std::move(contacts);
}

bool Node::isFrequentContact(NodeId peer) const {
  return std::binary_search(frequentContacts_.begin(),
                            frequentContacts_.end(), peer);
}

void Node::storePeerQueries(NodeId peer, const std::vector<std::string>& texts,
                            SimTime now) {
  if (!isFrequentContact(peer)) return;
  StoredQueries& stored = peerQueries_[peer];
  stored.texts = texts;
  stored.storedAt = now;
  oldestQueryStamp_ = std::min(oldestQueryStamp_, now);
  touch();
}

const std::vector<std::string>& Node::proxiedQueryTexts(SimTime now) const {
  auto& cache = proxiedTextsCache_;
  if (cache.generation != stateGen_ || cache.at != now) {
    std::set<std::string> texts;
    for (const auto& [peer, stored] : peerQueries_) {
      if (now - stored.storedAt > cooperativeTtl_) continue;
      texts.insert(stored.texts.begin(), stored.texts.end());
    }
    cache.value.assign(texts.begin(), texts.end());
    cache.generation = stateGen_;
    cache.at = now;
  }
  return cache.value;
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

  out.u64(queries_.size());
  for (const QueryState& qs : queries_) {
    out.u32(qs.query.id.value);
    out.u32(qs.query.owner.value);
    out.str(qs.query.text);
    out.u32(qs.query.target.value);
    out.i64(qs.query.issuedAt);
    out.i64(qs.query.ttl);
    out.boolean(qs.metadataFound);
    out.u32(qs.chosenFile.value);
    out.boolean(qs.fileFound);
  }

  // Unordered containers are written in sorted order so checkpoint bytes
  // are deterministic (iteration order is behavior-neutral elsewhere).
  std::vector<FileId> rejected(rejectedMetadata_.begin(),
                               rejectedMetadata_.end());
  std::sort(rejected.begin(), rejected.end());
  out.u64(rejected.size());
  for (const FileId file : rejected) out.u32(file.value);

  std::vector<std::pair<NodeId, int>> rejections(rejectionsFrom_.begin(),
                                                 rejectionsFrom_.end());
  std::sort(rejections.begin(), rejections.end());
  out.u64(rejections.size());
  for (const auto& [peer, count] : rejections) {
    out.u32(peer.value);
    out.i64(count);
  }

  std::vector<NodeId> distrusted(distrustedPeers_.begin(),
                                 distrustedPeers_.end());
  std::sort(distrusted.begin(), distrusted.end());
  out.u64(distrusted.size());
  for (const NodeId peer : distrusted) out.u32(peer.value);

  std::vector<std::pair<NodeId, const StoredQueries*>> stored;
  stored.reserve(peerQueries_.size());
  for (const auto& [peer, sq] : peerQueries_) stored.emplace_back(peer, &sq);
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

void Node::loadState(Deserializer& in, MetadataInterner& interner) {
  metadata_.loadState(in, interner);
  pieces_.loadState(in);
  credits_.loadState(in);

  queries_.clear();
  const std::size_t queryCount = in.length();
  queries_.reserve(queryCount);
  for (std::size_t i = 0; i < queryCount; ++i) {
    QueryState qs;
    qs.query.id = QueryId{in.u32()};
    qs.query.owner = NodeId{in.u32()};
    qs.query.text = in.str();
    qs.query.target = FileId{in.u32()};
    qs.query.issuedAt = in.i64();
    qs.query.ttl = in.i64();
    qs.tokens = keywordTokens(qs.query.text);
    qs.metadataFound = in.boolean();
    qs.chosenFile = FileId{in.u32()};
    qs.fileFound = in.boolean();
    queries_.push_back(std::move(qs));
  }

  rejectedMetadata_.clear();
  const std::size_t rejectedCount = in.length();
  for (std::size_t i = 0; i < rejectedCount; ++i) {
    rejectedMetadata_.insert(FileId{in.u32()});
  }

  rejectionsFrom_.clear();
  const std::size_t rejectionCount = in.length();
  for (std::size_t i = 0; i < rejectionCount; ++i) {
    const NodeId peer{in.u32()};
    rejectionsFrom_[peer] = static_cast<int>(in.i64());
  }

  distrustedPeers_.clear();
  const std::size_t distrustCount = in.length();
  for (std::size_t i = 0; i < distrustCount; ++i) {
    distrustedPeers_.insert(NodeId{in.u32()});
  }

  peerQueries_.clear();
  oldestQueryStamp_ = kNoStamp;
  const std::size_t storedCount = in.length();
  for (std::size_t i = 0; i < storedCount; ++i) {
    const NodeId peer{in.u32()};
    StoredQueries sq;
    sq.texts.resize(in.length());
    for (std::string& text : sq.texts) text = in.str();
    sq.storedAt = in.i64();
    oldestQueryStamp_ = std::min(oldestQueryStamp_, sq.storedAt);
    peerQueries_.emplace(peer, std::move(sq));
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
                    SimTime now) {
  if (protocol.distributesQueries()) {
    // `texts` views the peer's cache; storePeerQueries never rebuilds it.
    for (std::size_t j = 0; j < members.size(); ++j) {
      const Node& peer = *members[j];
      if (!peer.contributes()) continue;
      const std::vector<std::string>& texts = peer.activeQueryTexts(now);
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
    for (FileId file : node.wantedFilesView(now)) {
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

}  // namespace hdtn::core
