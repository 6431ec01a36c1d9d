#include "tests/reference_oracles.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_set>
#include <utility>

#include "src/core/query.hpp"
#include "src/util/random.hpp"

namespace hdtn {
namespace {

// Reference Bron-Kerbosch with pivoting. R: current clique, P: candidates,
// X: already processed. Sets are kept as sorted vectors; intersections are
// linear.
class BronKerboschReference {
 public:
  explicit BronKerboschReference(const AdjacencyGraph& graph)
      : graph_(graph) {}

  std::vector<std::vector<NodeId>> run() {
    std::vector<NodeId> r;
    std::vector<NodeId> p = graph_.nodes();
    std::vector<NodeId> x;
    expand(r, p, x);
    std::sort(out_.begin(), out_.end(), [](const auto& a, const auto& b) {
      if (a.size() != b.size()) return a.size() > b.size();
      return a < b;
    });
    return std::move(out_);
  }

 private:
  std::vector<NodeId> intersectNeighbors(const std::vector<NodeId>& set,
                                         NodeId v) const {
    std::vector<NodeId> out;
    const auto* nbrs = graph_.neighborSet(v);
    if (nbrs == nullptr) return out;
    for (NodeId n : set) {
      if (nbrs->contains(n)) out.push_back(n);
    }
    return out;
  }

  void expand(std::vector<NodeId>& r, std::vector<NodeId> p,
              std::vector<NodeId> x) {
    if (p.empty() && x.empty()) {
      if (!r.empty()) {
        std::vector<NodeId> clique = r;
        std::sort(clique.begin(), clique.end());
        out_.push_back(std::move(clique));
      }
      return;
    }
    // Pivot: the vertex in P union X with the most neighbors in P minimizes
    // branching.
    NodeId pivot;
    std::size_t best = 0;
    bool first = true;
    for (const auto& set : {p, x}) {
      for (NodeId v : set) {
        const std::size_t deg = intersectNeighbors(p, v).size();
        if (first || deg > best) {
          pivot = v;
          best = deg;
          first = false;
        }
      }
    }
    const auto* pivotNbrs = graph_.neighborSet(pivot);
    std::vector<NodeId> candidates;
    for (NodeId v : p) {
      if (pivotNbrs == nullptr || !pivotNbrs->contains(v)) {
        candidates.push_back(v);
      }
    }
    for (NodeId v : candidates) {
      r.push_back(v);
      expand(r, intersectNeighbors(p, v), intersectNeighbors(x, v));
      r.pop_back();
      p.erase(std::find(p.begin(), p.end(), v));
      x.push_back(v);
    }
  }

  const AdjacencyGraph& graph_;
  std::vector<std::vector<NodeId>> out_;
};

}  // namespace

std::vector<std::vector<NodeId>> maximalCliquesReference(
    const AdjacencyGraph& graph) {
  return BronKerboschReference(graph).run();
}

std::vector<std::vector<NodeId>> maximalCliquesContainingReference(
    const AdjacencyGraph& graph, NodeId node) {
  std::vector<std::vector<NodeId>> out;
  for (auto& clique : maximalCliquesReference(graph)) {
    if (std::binary_search(clique.begin(), clique.end(), node)) {
      out.push_back(std::move(clique));
    }
  }
  return out;
}

std::vector<std::vector<NodeId>> partitionIntoCliquesReference(
    const AdjacencyGraph& graph) {
  AdjacencyGraph work = graph;
  std::vector<std::vector<NodeId>> out;
  while (work.nodeCount() > 0) {
    auto cliques = maximalCliquesReference(work);
    if (cliques.empty()) break;
    // maximalCliques sorts by (size desc, members asc), so front() is the
    // deterministic greedy choice.
    std::vector<NodeId> chosen = cliques.front();
    for (NodeId n : chosen) work.removeNode(n);
    out.push_back(std::move(chosen));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a < b;
  });
  return out;
}

namespace core {

std::vector<MetadataBroadcast> planDiscoveryReference(
    std::span<const DiscoveryPeer> peers, int budget, Scheduling scheduling) {
  if (scheduling != Scheduling::kTitForTat) {
    return planDiscovery(peers, budget, scheduling);
  }
  if (budget <= 0 || peers.size() < 2) return {};
  // Every candidate record exactly once, with its requesters: an unbounded
  // cooperative plan.
  const std::vector<MetadataBroadcast> candidates = planDiscovery(
      peers, std::numeric_limits<int>::max(), Scheduling::kCooperative);
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

}  // namespace core
}  // namespace hdtn
