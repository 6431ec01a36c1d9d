#include "src/core/access_sync.hpp"

#include <algorithm>
#include <string>

namespace hdtn::core {
namespace {

// The first entry of the text-sorted `searched` whose text is not below
// `text`.
template <typename Searched>
auto searchedSlot(Searched& searched, const std::string& text) {
  return std::lower_bound(
      searched.begin(), searched.end(), text,
      [](const auto& entry, const std::string& key) {
        return entry.query->text < key;
      });
}

}  // namespace

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
      kStockLimit,
      std::max<std::size_t>(
          10, static_cast<std::size_t>(kStockFraction *
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

bool AccessSync::visited(const NodeState& state, FileId file,
                         std::uint8_t bit) const {
  return file.value >= visitBase_ &&
         file.value - visitBase_ < state.visits.size() &&
         (state.visits[file.value - visitBase_] & bit) != 0;
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
    if (host.storeMetadata(node, md, now)) {
      host.gotMetadata(node, md->file, now);
    }
  };

  // 1. Search the server for this node's queries (its own, plus the stored
  //    queries of its frequent contacts under MBT). Re-searching a text in
  //    the epoch it was searched cannot find anything new.
  for (const FileQuery* query :
       views.contactQueries(node, now, config_.searchProxiedQueries)) {
    const auto it = searchedSlot(state.searched, query->text);
    if (it != state.searched.end() && it->query->text == query->text) {
      if (it->at >= epoch_) continue;
      it->at = now;
    } else {
      state.searched.insert(it, {query->shared_from_this(), now});
    }
    const auto ranked = internet_.search(*query, now);
    // The user (or the proxy on a peer's behalf) keeps the top matches.
    const std::size_t take = std::min<std::size_t>(3, ranked.size());
    for (std::size_t i = 0; i < take; ++i) {
      acceptFromServer(
          internet_.catalog().sharedMetadataFor(ranked[i].metadata->file));
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
    // The walk stores and delivers nothing when every fresh want is expired
    // or fetched and complete, which is most syncs after an epoch's first.
    if (node.allPeerWantedFiles(now, [&](FileId file) {
          return catalog.sharedMetadataFor(file)->expired(now) ||
                 (visited(state, file, kFetched) &&
                  node.pieces().isComplete(file));
        })) {
      return;
    }
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
    out.u64(it->second.searched.size());
    for (const Searched& entry : it->second.searched) {
      out.str(entry.query->text);
      out.i64(entry.at);
    }
  }
}

void AccessSync::loadState(Deserializer& in, std::size_t nodeCount,
                           QueryInterner& queries) {
  epoch_ = in.i64();
  if (in.length() != nodeCount) {
    throw SerializeError("corrupt payload: search-cache size mismatch");
  }
  nodes_.clear();
  for (std::uint32_t id = 0; id < nodeCount; ++id) {
    const std::size_t entries = in.length();
    if (entries == 0) continue;
    std::vector<Searched>& searched = nodes_[id].searched;
    for (std::size_t i = 0; i < entries; ++i) {
      SharedQuery query = queries.internText(in.str());
      const SimTime at = in.i64();
      // A text listed twice keeps its last time, as a keyed cache would.
      const auto slot = searchedSlot(searched, query->text);
      if (slot != searched.end() && slot->query->text == query->text) {
        slot->at = at;
      } else {
        searched.insert(slot, {std::move(query), at});
      }
    }
  }
  if (epoch_ >= 0) beginEpoch(epoch_);
}

}  // namespace hdtn::core
