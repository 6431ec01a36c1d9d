#include "src/core/access_sync.hpp"

#include <algorithm>

namespace hdtn::core {

void AccessSync::beginEpoch(SimTime publishAt) {
  // The carry stock scales with the alive population so a longer TTL does
  // not dilute the coverage access nodes provide. Popularity only changes
  // at publish instants, so a restore rebuilds the same stock.
  epoch_ = publishAt;
  const std::vector<FileId> alive = internet_.catalog().aliveFiles(publishAt);
  visitBase_ = alive.empty()
                   ? static_cast<std::uint32_t>(internet_.catalog().size())
                   : alive.front().value;
  const auto stock = std::min(
      config_.stockLimit,
      std::max<std::size_t>(
          10, static_cast<std::size_t>(config_.stockFraction *
                                       static_cast<double>(alive.size()))));
  carryStock_ = internet_.topPopular(publishAt, stock);
}

bool AccessSync::beginVisit(NodeState& state, FileId file, std::uint8_t bit) {
  if (file.value < visitBase_) return true;  // not alive this epoch
  const std::size_t slot = file.value - visitBase_;
  if (slot >= state.visits.size()) state.visits.resize(slot + 1, 0);
  std::uint8_t& visited = state.visits[slot];
  if ((visited & bit) != 0) return false;
  visited |= bit;
  return true;
}

void AccessSync::forget(NodeId node, FileId file) {
  const auto it = nodes_.find(node.value);
  if (it == nodes_.end()) return;
  std::vector<std::uint8_t>& visits = it->second.visits;
  if (file.value >= visitBase_ && file.value - visitBase_ < visits.size()) {
    visits[file.value - visitBase_] = 0;
  }
}

void AccessSync::sync(Node& node, SimTime now, ContactViews& views,
                      Host& host) {
  if (epoch_ < 0) return;  // nothing published yet
  NodeState& state = nodes_[node.id().value];
  if (state.visitsEpoch != epoch_ ||
      state.visitsQueryCount != node.queryStates().size()) {
    // A new epoch or a new query: every file's outcome may differ.
    state.visits.assign(internet_.catalog().size() - visitBase_, 0);
    state.visitsEpoch = epoch_;
    state.visitsQueryCount = node.queryStates().size();
  }

  // The node's store shares the catalog's record object.
  auto acceptFromServer = [&](const SharedMetadata& md) {
    if (md->expired(now)) return;
    const bool isNew = !node.metadata().has(md->file);
    host.storeMetadata(node, md, now);
    // Re-check has(): a bounded store may have shed the record on admission.
    if (isNew && node.metadata().has(md->file)) {
      host.gotMetadata(node, md->file, now);
    }
  };

  // 1. Search the server for this node's queries (its own, plus the stored
  //    queries of its frequent contacts under MBT). Re-searching a text in
  //    the epoch it was searched cannot find anything new.
  for (const FileQuery* query :
       views.contactQueries(node, now, config_.searchProxiedQueries)) {
    const auto [it, inserted] = state.searched.try_emplace(query->text, now);
    if (!inserted) {
      if (it->second >= epoch_) continue;
      it->second = now;
    }
    const auto matches = internet_.search(query->text, now);
    // The user (or the proxy on a peer's behalf) keeps the top matches.
    const std::size_t take = std::min<std::size_t>(3, matches.size());
    for (std::size_t i = 0; i < take; ++i) {
      acceptFromServer(
          internet_.catalog().sharedMetadataFor(matches[i].metadata->file));
    }
  }

  // 2. Refresh the popularity-ordered carry stock.
  if (config_.takeCarryStock) {
    for (const SharedMetadata& md : carryStock_) {
      if (beginVisit(state, md->file, kStocked)) acceptFromServer(md);
    }
  }

  // 3. Download files this node selected ("enough bandwidth to download the
  //    files they need").
  for (FileId file : views.wantedFiles(node, now)) {
    host.deliverWholeFile(node, file, now);
  }

  // 4. Fetch files peers advertised as wanted, to carry into the DTN. The
  //    walk keeps URI order: the stores number what they admit in order.
  if (config_.fetchPeerWants) {
    const FileCatalog& catalog = internet_.catalog();
    std::vector<FileId> wanted = node.peerWantedFiles(now);
    std::sort(wanted.begin(), wanted.end(), [&catalog](FileId a, FileId b) {
      return catalog.uriRank(a) < catalog.uriRank(b);
    });
    for (const FileId file : wanted) {
      const SharedMetadata& md = catalog.sharedMetadataFor(file);
      if (md->expired(now)) continue;
      // A fetched file stays fetched until it loses a piece.
      if (!beginVisit(state, file, kFetched) &&
          node.pieces().isComplete(file)) {
        continue;
      }
      acceptFromServer(md);
      host.deliverWholeFile(node, file, now);
    }
  }
}

void AccessSync::saveState(Serializer& out, std::size_t nodeCount) const {
  out.i64(epoch_);
  out.u64(nodeCount);
  for (std::uint32_t id = 0; id < nodeCount; ++id) {
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      out.u64(0);
      continue;
    }
    std::vector<std::pair<std::string_view, SimTime>> sorted(
        it->second.searched.begin(), it->second.searched.end());
    std::sort(sorted.begin(), sorted.end());
    out.u64(sorted.size());
    for (const auto& [text, at] : sorted) {
      out.str(text);
      out.i64(at);
    }
  }
}

void AccessSync::loadState(Deserializer& in, std::size_t nodeCount) {
  epoch_ = in.i64();
  if (in.length() != nodeCount) {
    throw SerializeError("corrupt payload: search-cache size mismatch");
  }
  nodes_.clear();
  for (std::uint32_t id = 0; id < nodeCount; ++id) {
    const std::size_t entries = in.length();
    if (entries == 0) continue;
    auto& searched = nodes_[id].searched;
    for (std::size_t i = 0; i < entries; ++i) {
      std::string text = in.str();
      searched[std::move(text)] = in.i64();
    }
  }
  if (epoch_ >= 0) beginEpoch(epoch_);
}

}  // namespace hdtn::core
