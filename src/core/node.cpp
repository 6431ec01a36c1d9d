#include "src/core/node.hpp"

#include <algorithm>

#include "src/core/file_catalog.hpp"
#include "src/core/protocol.hpp"
#include "src/core/state_refs.hpp"

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

std::vector<SharedQuery> Node::activeQueries(SimTime now) const {
  std::vector<SharedQuery> queries;
  for (const QueryState& qs : liveQueries(now)) {
    if (qs.metadataFound || qs.query->expired(now)) continue;
    queries.push_back(qs.query);
  }
  return queries;
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
           matches(*qs.query, md, catalog_);
  });
}

Node::Accepted Node::acceptMetadata(const SharedMetadata& shared,
                                    SimTime now, SharedMetadata* shed) {
  const Metadata& md = *shared;
  Accepted accepted;
  if (md.expired(now)) return accepted;
  touch();
  const MetadataStore::Admission admission = metadata_.add(shared, shed);
  accepted.added = admission == MetadataStore::Admission::kAdded;
  // A bounded store may shed the incoming record under capacity pressure;
  // a record that was never stored must not be selected for download.
  if (admission == MetadataStore::Admission::kShed) return accepted;
  for (QueryState& qs : liveQueries(now)) {
    if (qs.metadataFound || qs.query->expired(now)) continue;
    if (!matches(*qs.query, md, catalog_)) continue;
    // The simulated user examines the match and selects it for download.
    qs.metadataFound = true;
    qs.chosenFile = md.file;
    pieces_.registerFile(md.file, md.pieceCount());
    pieces_.setPriority(md.file, md.popularity);
    accepted.selected.push_back(qs.id);
  }
  return accepted;
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
    if (dropped > 0) {
      proxy_->unlist();
      touch();
    }
  }
  if (oldestWantStamp_ < horizon) {
    std::erase_if(peerWants_,
                  [&](const PeerWant& want) { return want.stamp < horizon; });
    oldestWantStamp_ = kNoStamp;
    for (const PeerWant& want : peerWants_) {
      oldestWantStamp_ = std::min(oldestWantStamp_, want.stamp);
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

void Node::storePeerQueries(NodeId peer, std::span<const SharedQuery> queries,
                            SimTime now) {
  if (!isFrequentContact(peer)) return;
  ProxyState::StoredQueries& stored = proxy_->peerQueries[peer];
  // A peer's queries rarely change between contacts: when the objects are
  // the ones already stored, only the stamp moves, and the proxied list
  // holds unless the old stamp had left it (or time went back).
  if (!std::ranges::equal(stored.queries, queries)) {
    stored.queries.assign(queries.begin(), queries.end());
    proxy_->unlist();
  } else if (!stored.queries.empty() &&
             (now < stored.storedAt ||
              proxy_->listedAt - stored.storedAt > cooperativeTtl_)) {
    proxy_->unlist();
  }
  stored.storedAt = now;
  proxy_->oldestStamp = std::min(proxy_->oldestStamp, now);
  touch();
}

const std::vector<const FileQuery*>& Node::proxiedQueries(SimTime now) const {
  static const std::vector<const FileQuery*> kNone;
  if (!proxy_) return kNone;
  ProxyState& proxy = *proxy_;
  if (now >= proxy.listedAt && now <= proxy.listedUntil) return proxy.list;
  std::vector<const FileQuery*>& out = proxy.list;
  out.clear();
  proxy.listedAt = now;
  proxy.listedUntil = std::numeric_limits<SimTime>::max();
  for (const auto& [peer, stored] : proxy.peerQueries) {
    if (now - stored.storedAt > cooperativeTtl_ || stored.queries.empty()) {
      continue;
    }
    proxy.listedUntil =
        std::min(proxy.listedUntil, stored.storedAt + cooperativeTtl_);
    for (const SharedQuery& query : stored.queries) out.push_back(query.get());
  }
  // Peers asking for one file share its object: drop repeated objects
  // first, then repeated texts.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  const auto byText = [](const FileQuery* a, const FileQuery* b) {
    return a->text < b->text;
  };
  std::sort(out.begin(), out.end(), byText);
  out.erase(std::unique(out.begin(), out.end(),
                        [](const FileQuery* a, const FileQuery* b) {
                          return a->text == b->text;
                        }),
            out.end());
  return out;
}

std::vector<std::string> Node::proxiedQueryTexts(SimTime now) const {
  std::vector<std::string> texts;
  for (const FileQuery* query : proxiedQueries(now)) {
    texts.push_back(query->text);
  }
  return texts;
}

void Node::storePeerWants(const std::vector<Uri>& uris, SimTime now) {
  if (catalog_ == nullptr) return;
  std::vector<FileId> files;
  for (const Uri& uri : uris) {
    if (const FileInfo* info = catalog_->findByUri(uri)) {
      files.push_back(info->id);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  stampPeerWants(files, now);
}

void Node::stampPeerWants(std::span<const FileId> files, SimTime now) {
  if (files.empty()) return;
  // Restamp the files already held and count the rest...
  std::size_t missing = 0;
  auto held = peerWants_.begin();
  for (const FileId file : files) {
    while (held != peerWants_.end() && held->file < file) ++held;
    if (held != peerWants_.end() && held->file == file) {
      held->stamp = now;
    } else {
      ++missing;
    }
  }
  // ...then merge them in from the back, moving each held entry once.
  if (missing > 0) {
    std::size_t from = peerWants_.size();
    std::size_t to = from + missing;
    std::size_t next = files.size();
    peerWants_.resize(to);
    while (next > 0) {
      const FileId file = files[next - 1];
      if (from > 0 && !(peerWants_[from - 1].file < file)) {
        if (peerWants_[from - 1].file == file) --next;
        peerWants_[--to] = peerWants_[--from];
      } else {
        peerWants_[--to] = PeerWant{file, now};
        --next;
      }
    }
  }
  oldestWantStamp_ = std::min(oldestWantStamp_, now);
}

std::vector<FileId> Node::peerWantedFiles(SimTime now) const {
  std::vector<FileId> out;
  for (const PeerWant& want : peerWants_) {
    if (now - want.stamp <= cooperativeTtl_) out.push_back(want.file);
  }
  return out;
}

std::vector<Uri> Node::peerWantedUris(SimTime now) const {
  std::vector<Uri> out;
  for (const FileId file : peerWantedFiles(now)) {
    out.push_back(catalog_->find(file)->uri);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Node::saveState(Serializer& out, StateRefWriter& refs) const {
  metadata_.saveState(out, refs);
  pieces_.saveState(out);
  credits_.saveState(out);

  // The owner is always this node.
  out.u64(queries_.size());
  for (const QueryState& qs : queries_) {
    out.u32(qs.id.value);
    out.u32(id_.value);
    refs.query(out, *qs.query);
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

  // A peer whose stored list is empty proxies nothing, stored or not, so
  // its entry is left out.
  std::vector<std::pair<NodeId, const ProxyState::StoredQueries*>> stored;
  if (proxy_) {
    stored.reserve(proxy_->peerQueries.size());
    for (const auto& [peer, sq] : proxy_->peerQueries) {
      if (!sq.queries.empty()) stored.emplace_back(peer, &sq);
    }
  }
  std::sort(stored.begin(), stored.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.u64(stored.size());
  for (const auto& [peer, sq] : stored) {
    out.u32(peer.value);
    out.u64(sq->queries.size());
    for (const SharedQuery& query : sq->queries) refs.query(out, *query);
    out.i64(sq->storedAt);
  }

  out.u64(peerWants_.size());
  for (const PeerWant& want : peerWants_) {
    out.u32(want.file.value);
    out.i64(want.stamp);
  }
}

void Node::loadState(Deserializer& in, StateRefReader& refs) {
  metadata_.loadState(in, refs);
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
    qs.query = refs.query(in);
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
    proxy_->unlist();
  }
  const std::size_t storedCount = in.length();
  for (std::size_t i = 0; i < storedCount; ++i) {
    const NodeId peer{in.u32()};
    ProxyState::StoredQueries sq;
    sq.queries.resize(in.length());
    for (SharedQuery& query : sq.queries) query = refs.storedQuery(in);
    sq.storedAt = in.i64();
    ProxyState& proxyState = proxy_.getOrCreate();
    proxyState.oldestStamp = std::min(proxyState.oldestStamp, sq.storedAt);
    proxyState.peerQueries.emplace(peer, std::move(sq));
  }

  peerWants_.clear();
  oldestWantStamp_ = kNoStamp;
  const std::size_t wantCount = in.length();
  for (std::size_t i = 0; i < wantCount; ++i) {
    const FileInfo* info = nullptr;
    if (refs.v5()) {
      const Uri uri = in.str();
      info = catalog_ == nullptr ? nullptr : catalog_->findByUri(uri);
      if (info == nullptr) {
        throw SerializeError(
            "Node: peer want names a URI the catalog lacks: " + uri);
      }
    } else {
      const FileId file{in.u32()};
      info = catalog_ == nullptr ? nullptr : catalog_->find(file);
      if (info == nullptr) {
        throw SerializeError("Node: peer want names file " +
                             std::to_string(file.value) +
                             ", which the catalog lacks");
      }
      if (!peerWants_.empty() && !(peerWants_.back().file < file)) {
        throw SerializeError("Node: peer wants not in ascending file-id order");
      }
    }
    const SimTime when = in.i64();
    oldestWantStamp_ = std::min(oldestWantStamp_, when);
    peerWants_.push_back(PeerWant{info->id, when});
  }
  if (refs.v5()) {
    // v5 wrote URI order. A URI listed twice (only a hand-made checkpoint
    // has one) keeps its last stamp, as a keyed store would.
    std::stable_sort(
        peerWants_.begin(), peerWants_.end(),
        [](const PeerWant& a, const PeerWant& b) { return a.file < b.file; });
    std::size_t kept = 0;
    for (const PeerWant& want : peerWants_) {
      if (kept > 0 && peerWants_[kept - 1].file == want.file) --kept;
      peerWants_[kept++] = want;
    }
    peerWants_.resize(kept);
  }

  touch();
}

void exchangeHellos(std::span<Node* const> members,
                    const ProtocolConfig& protocol, const FileCatalog& catalog,
                    SimTime now, ContactViews& views) {
  if (protocol.distributesQueries()) {
    // `queries` views the peer's cached slot; storePeerQueries never
    // recomputes it.
    for (std::size_t j = 0; j < members.size(); ++j) {
      const Node& peer = *members[j];
      if (!peer.contributes()) continue;
      const std::vector<SharedQuery>& queries = views.activeQueries(peer, now);
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != j) members[i]->storePeerQueries(peer.id(), queries, now);
      }
    }
  }
  // Wanted URIs exist only when metadata circulates; they ride on hellos.
  if (!protocol.distributesMetadata()) return;

  // Every advertised file once, with its first advertiser and whether
  // another member advertised it too, in per-file slots stamped with this
  // exchange's serial (so no slot is ever cleared).
  const std::uint64_t serial = ++views.helloSerial_;
  if (views.advertSeen_.size() < catalog.size()) {
    views.advertSeen_.resize(catalog.size(), 0);
    views.adverts_.resize(catalog.size());
  }
  std::vector<FileId>& advertised = views.advertised_;
  advertised.clear();
  auto advertise = [&](FileId file, std::uint32_t member) {
    ContactViews::Advert& advert = views.adverts_[file.value];
    if (views.advertSeen_[file.value] != serial) {
      views.advertSeen_[file.value] = serial;
      advert = {member, false};
      advertised.push_back(file);
    } else if (advert.first != member) {
      advert.shared = true;
    }
  };
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    const Node& node = *members[i];
    for (FileId file : views.wantedFiles(node, now)) {
      if (catalog.find(file) != nullptr) advertise(file, i);
    }
    // Under MBT, stored "requesting URIs" of peers are re-advertised, so a
    // request can travel multiple hops toward an access node.
    if (protocol.distributesQueries()) {
      for (const Node::PeerWant& want : node.peerWants_) {
        if (now - want.stamp <= node.cooperativeTtl_) advertise(want.file, i);
      }
    }
  }
  std::sort(advertised.begin(), advertised.end());
  std::vector<FileId>& share = views.memberShare_;
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    share.clear();
    for (const FileId file : advertised) {
      const ContactViews::Advert& advert = views.adverts_[file.value];
      if (advert.shared || advert.first != i) share.push_back(file);
    }
    members[i]->stampPeerWants(share, now);
  }
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
  fresh.active.generation = 0;
  fresh.own.generation = 0;
  fresh.combined.generation = 0;
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

const std::vector<SharedQuery>& ContactViews::activeQueries(const Node& node,
                                                          SimTime now) {
  return refreshed(slot(node).active, node, now,
                   [&] { return node.activeQueries(now); });
}

const std::vector<const FileQuery*>& ContactViews::contactQueries(
    const Node& node, SimTime now, bool includeProxied) {
  Slot& s = slot(node);
  const auto& own = refreshed(s.own, node, now, [&] {
    std::vector<const FileQuery*> queries;
    for (const SharedQuery& query : activeQueries(node, now)) {
      queries.push_back(query.get());
    }
    return queries;
  });
  if (!includeProxied) return own;
  return refreshed(s.combined, node, now, [&] {
    std::vector<const FileQuery*> queries = own;
    const std::vector<const FileQuery*>& proxied = node.proxiedQueries(now);
    queries.insert(queries.end(), proxied.begin(), proxied.end());
    return queries;
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
