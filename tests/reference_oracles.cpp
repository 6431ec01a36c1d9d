#include "tests/reference_oracles.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
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
