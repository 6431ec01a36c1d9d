#include "src/graph/clique.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace hdtn {
namespace {

constexpr std::size_t kWordBits = 64;

// Dense-bitset Bron-Kerbosch. NodeIds are mapped to indices 0..n-1 in
// ascending id order; vertex sets (P, X, neighbor rows) are bitsets, so set
// intersection is a word-wise AND and the pivot scan costs one popcount per
// member of P union X — O(|P|+|X|) words of work instead of the O(|P|^2)
// membership probing of the reference. The outer loop over vertices follows
// a degeneracy ordering, which bounds every top-level P to the vertex's
// later neighbors.
class DenseCliqueFinder {
 public:
  explicit DenseCliqueFinder(const AdjacencyGraph& graph)
      : ids_(graph.nodes()),
        n_(static_cast<std::uint32_t>(ids_.size())),
        words_((ids_.size() + kWordBits - 1) / kWordBits) {
    adj_.assign(static_cast<std::size_t>(n_) * words_, 0);
    // Per-depth scratch for expand(): child P, child X, and the pivot's
    // non-neighbor candidates. Sized once; recursion depth is at most n.
    scratch_.assign(static_cast<std::size_t>(n_) + 1,
                    std::vector<std::uint64_t>(3 * words_));
    std::unordered_map<NodeId, std::uint32_t> indexOf;
    indexOf.reserve(n_);
    for (std::uint32_t i = 0; i < n_; ++i) indexOf.emplace(ids_[i], i);
    indexOf_ = std::move(indexOf);
    for (std::uint32_t i = 0; i < n_; ++i) {
      for (NodeId nb : graph.neighbors(ids_[i])) {
        setBit(row(i), indexOf_.at(nb));
      }
    }
  }

  /// All maximal cliques, sorted (size desc, members asc).
  std::vector<std::vector<NodeId>> allMaximal() {
    enumerateRaw();
    return finish();
  }

  /// Maximal cliques containing `node`: Bron-Kerbosch seeded with R={node},
  /// P=N(node) — the search never leaves the closed neighborhood, so the
  /// rest of the graph is never enumerated.
  std::vector<std::vector<NodeId>> containing(NodeId node) {
    rawOut_.clear();
    auto it = indexOf_.find(node);
    if (it == indexOf_.end()) return {};
    const std::uint32_t v = it->second;
    std::vector<std::uint64_t> p(row(v), row(v) + words_);
    std::vector<std::uint64_t> x(words_, 0);
    std::vector<std::uint32_t> r(1, v);
    expand(r, p.data(), x.data(), 0);
    return finish();
  }

  /// Greedy clique partition: enumerate maximal cliques once, then per round
  /// pick the clique whose surviving members (not yet assigned) are largest
  /// (ties by lexicographically smallest member list) — equivalent to
  /// re-running enumeration on the shrinking residual graph, because every
  /// maximum clique of the residual graph is the restriction of some
  /// maximal clique of the original.
  std::vector<std::vector<NodeId>> partition() {
    if (n_ == 0) return {};
    enumerateRaw();
    std::vector<std::vector<std::uint32_t>> cliques = std::move(rawOut_);
    rawOut_.clear();

    std::vector<char> removed(n_, 0);
    std::uint32_t remaining = n_;
    std::vector<std::vector<NodeId>> parts;
    std::vector<std::uint32_t> best, surviving;
    while (remaining > 0) {
      best.clear();
      for (const auto& clique : cliques) {
        surviving.clear();
        for (std::uint32_t v : clique) {
          if (!removed[v]) surviving.push_back(v);
        }
        if (surviving.empty()) continue;
        if (surviving.size() > best.size() ||
            (surviving.size() == best.size() && surviving < best)) {
          best = surviving;
        }
      }
      for (std::uint32_t v : best) {
        removed[v] = 1;
        --remaining;
      }
      parts.push_back(toIds(best));
    }
    std::sort(parts.begin(), parts.end(), [](const auto& a, const auto& b) {
      if (a.size() != b.size()) return a.size() > b.size();
      return a < b;
    });
    return parts;
  }

 private:
  void enumerateRaw() {
    rawOut_.clear();
    if (n_ == 0) return;
    std::vector<std::uint64_t> p(words_), x(words_);
    std::vector<std::uint64_t> processed(words_, 0);
    std::vector<std::uint32_t> r;
    for (std::uint32_t v : degeneracyOrder()) {
      // P: neighbors later in the ordering; X: neighbors already processed.
      for (std::size_t w = 0; w < words_; ++w) {
        p[w] = row(v)[w] & ~processed[w];
        x[w] = row(v)[w] & processed[w];
      }
      r.assign(1, v);
      expand(r, p.data(), x.data(), 0);
      setBit(processed.data(), v);
    }
  }

  std::uint64_t* row(std::uint32_t v) {
    return adj_.data() + static_cast<std::size_t>(v) * words_;
  }
  static void setBit(std::uint64_t* bits, std::uint32_t v) {
    bits[v / kWordBits] |= std::uint64_t{1} << (v % kWordBits);
  }
  static void clearBit(std::uint64_t* bits, std::uint32_t v) {
    bits[v / kWordBits] &= ~(std::uint64_t{1} << (v % kWordBits));
  }
  bool isEmpty(const std::uint64_t* bits) const {
    for (std::size_t w = 0; w < words_; ++w) {
      if (bits[w] != 0) return false;
    }
    return true;
  }
  std::size_t intersectCount(const std::uint64_t* a,
                             const std::uint64_t* b) const {
    std::size_t count = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
    }
    return count;
  }
  template <typename Fn>
  void forEachBit(const std::uint64_t* bits, Fn&& fn) const {
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
        word &= word - 1;
        fn(static_cast<std::uint32_t>(w * kWordBits) + bit);
      }
    }
  }

  /// Smallest-last (degeneracy) ordering; ties by smallest id for
  /// determinism. Contact-window graphs are tiny, so the quadratic selection
  /// is cheaper than maintaining bucket queues.
  std::vector<std::uint32_t> degeneracyOrder() const {
    std::vector<std::uint32_t> degree(n_, 0);
    for (std::uint32_t v = 0; v < n_; ++v) {
      degree[v] = static_cast<std::uint32_t>(intersectCountAll(v));
    }
    std::vector<char> placed(n_, 0);
    std::vector<std::uint32_t> order;
    order.reserve(n_);
    for (std::uint32_t step = 0; step < n_; ++step) {
      std::uint32_t pick = std::numeric_limits<std::uint32_t>::max();
      for (std::uint32_t v = 0; v < n_; ++v) {
        if (placed[v]) continue;
        if (pick == std::numeric_limits<std::uint32_t>::max() ||
            degree[v] < degree[pick]) {
          pick = v;
        }
      }
      placed[pick] = 1;
      order.push_back(pick);
      const std::uint64_t* nbrs =
          adj_.data() + static_cast<std::size_t>(pick) * words_;
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t word = nbrs[w];
        while (word != 0) {
          const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
          word &= word - 1;
          const auto u = static_cast<std::uint32_t>(w * kWordBits) + bit;
          if (!placed[u] && degree[u] > 0) --degree[u];
        }
      }
    }
    return order;
  }
  std::size_t intersectCountAll(std::uint32_t v) const {
    const std::uint64_t* nbrs =
        adj_.data() + static_cast<std::size_t>(v) * words_;
    std::size_t count = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      count += static_cast<std::size_t>(std::popcount(nbrs[w]));
    }
    return count;
  }

  void expand(std::vector<std::uint32_t>& r, std::uint64_t* p,
              std::uint64_t* x, std::size_t depth) {
    if (isEmpty(p) && isEmpty(x)) {
      rawOut_.emplace_back(r.begin(), r.end());
      std::sort(rawOut_.back().begin(), rawOut_.back().end());
      return;
    }
    // Pivot: the member of P union X with the most neighbors in P minimizes
    // branching. One AND+popcount pass per member.
    std::uint32_t pivot = 0;
    std::size_t bestDeg = 0;
    bool first = true;
    const auto consider = [&](std::uint32_t u) {
      const std::size_t deg = intersectCount(row(u), p);
      if (first || deg > bestDeg) {
        pivot = u;
        bestDeg = deg;
        first = false;
      }
    };
    forEachBit(p, consider);
    forEachBit(x, consider);

    // All per-branch sets live in this depth's scratch row: the recursive
    // call mutates its own P/X, which are refilled before every branch, so
    // no per-branch heap allocation is needed.
    std::uint64_t* np = scratch_[depth].data();
    std::uint64_t* nx = np + words_;
    std::uint64_t* candidates = np + 2 * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      candidates[w] = p[w] & ~row(pivot)[w];
    }
    forEachBit(candidates, [&](std::uint32_t v) {
      for (std::size_t w = 0; w < words_; ++w) {
        np[w] = p[w] & row(v)[w];
        nx[w] = x[w] & row(v)[w];
      }
      r.push_back(v);
      expand(r, np, nx, depth + 1);
      r.pop_back();
      clearBit(p, v);
      setBit(x, v);
    });
  }

  std::vector<NodeId> toIds(const std::vector<std::uint32_t>& indices) const {
    std::vector<NodeId> out;
    out.reserve(indices.size());
    for (std::uint32_t v : indices) out.push_back(ids_[v]);
    return out;
  }

  std::vector<std::vector<NodeId>> finish() {
    std::vector<std::vector<NodeId>> out;
    out.reserve(rawOut_.size());
    for (const auto& clique : rawOut_) out.push_back(toIds(clique));
    rawOut_.clear();
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.size() != b.size()) return a.size() > b.size();
      return a < b;
    });
    return out;
  }

  std::vector<NodeId> ids_;
  std::uint32_t n_;
  std::size_t words_;
  std::vector<std::uint64_t> adj_;
  std::vector<std::vector<std::uint64_t>> scratch_;
  std::unordered_map<NodeId, std::uint32_t> indexOf_;
  std::vector<std::vector<std::uint32_t>> rawOut_;
};

}  // namespace

std::vector<std::vector<NodeId>> maximalCliques(const AdjacencyGraph& graph) {
  return DenseCliqueFinder(graph).allMaximal();
}

std::vector<std::vector<NodeId>> maximalCliquesContaining(
    const AdjacencyGraph& graph, NodeId node) {
  return DenseCliqueFinder(graph).containing(node);
}

std::vector<std::vector<NodeId>> partitionIntoCliques(
    const AdjacencyGraph& graph) {
  return DenseCliqueFinder(graph).partition();
}

bool isClique(const AdjacencyGraph& graph,
              const std::vector<NodeId>& members) {
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (!graph.hasEdge(members[i], members[j])) return false;
    }
  }
  return true;
}

}  // namespace hdtn
