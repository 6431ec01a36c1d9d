#include "src/graph/clique.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/util/random.hpp"
#include "tests/reference_oracles.hpp"

namespace hdtn {
namespace {

AdjacencyGraph completeGraph(std::uint32_t n) {
  AdjacencyGraph g;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      g.addEdge(NodeId(i), NodeId(j));
    }
  }
  return g;
}

TEST(MaximalCliques, CompleteGraphIsOneClique) {
  const auto cliques = maximalCliques(completeGraph(5));
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].size(), 5u);
}

TEST(MaximalCliques, TriangleWithTail) {
  AdjacencyGraph g;
  g.addEdge(NodeId(0), NodeId(1));
  g.addEdge(NodeId(1), NodeId(2));
  g.addEdge(NodeId(0), NodeId(2));
  g.addEdge(NodeId(2), NodeId(3));
  const auto cliques = maximalCliques(g);
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0], (std::vector<NodeId>{NodeId(0), NodeId(1), NodeId(2)}));
  EXPECT_EQ(cliques[1], (std::vector<NodeId>{NodeId(2), NodeId(3)}));
}

TEST(MaximalCliques, DisjointEdges) {
  AdjacencyGraph g;
  g.addEdge(NodeId(0), NodeId(1));
  g.addEdge(NodeId(2), NodeId(3));
  const auto cliques = maximalCliques(g);
  EXPECT_EQ(cliques.size(), 2u);
}

TEST(MaximalCliques, IsolatedNodeIsItsOwnClique) {
  AdjacencyGraph g;
  g.addNode(NodeId(7));
  const auto cliques = maximalCliques(g);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], (std::vector<NodeId>{NodeId(7)}));
}

TEST(MaximalCliques, EmptyGraph) {
  AdjacencyGraph g;
  EXPECT_TRUE(maximalCliques(g).empty());
}

TEST(MaximalCliques, CycleOfFourHasFourEdgesAsCliques) {
  AdjacencyGraph g;  // C4 is triangle-free
  g.addEdge(NodeId(0), NodeId(1));
  g.addEdge(NodeId(1), NodeId(2));
  g.addEdge(NodeId(2), NodeId(3));
  g.addEdge(NodeId(3), NodeId(0));
  const auto cliques = maximalCliques(g);
  EXPECT_EQ(cliques.size(), 4u);
  for (const auto& clique : cliques) EXPECT_EQ(clique.size(), 2u);
}

TEST(MaximalCliquesContaining, FiltersByMembership) {
  AdjacencyGraph g;
  g.addEdge(NodeId(0), NodeId(1));
  g.addEdge(NodeId(1), NodeId(2));
  g.addEdge(NodeId(0), NodeId(2));
  g.addEdge(NodeId(2), NodeId(3));
  const auto withNode3 = maximalCliquesContaining(g, NodeId(3));
  ASSERT_EQ(withNode3.size(), 1u);
  EXPECT_EQ(withNode3[0], (std::vector<NodeId>{NodeId(2), NodeId(3)}));
  const auto withNode2 = maximalCliquesContaining(g, NodeId(2));
  EXPECT_EQ(withNode2.size(), 2u);
}

TEST(IsClique, Checks) {
  AdjacencyGraph g = completeGraph(4);
  g.removeEdge(NodeId(0), NodeId(3));
  EXPECT_TRUE(isClique(g, {NodeId(0), NodeId(1), NodeId(2)}));
  EXPECT_FALSE(isClique(g, {NodeId(0), NodeId(1), NodeId(3)}));
  EXPECT_TRUE(isClique(g, {NodeId(0)}));
  EXPECT_TRUE(isClique(g, {}));
}

TEST(PartitionIntoCliques, DisjointAndCovering) {
  AdjacencyGraph g;
  // Two triangles sharing node 2: partition must not reuse node 2.
  g.addEdge(NodeId(0), NodeId(1));
  g.addEdge(NodeId(1), NodeId(2));
  g.addEdge(NodeId(0), NodeId(2));
  g.addEdge(NodeId(2), NodeId(3));
  g.addEdge(NodeId(3), NodeId(4));
  g.addEdge(NodeId(2), NodeId(4));
  const auto parts = partitionIntoCliques(g);
  std::set<NodeId> seen;
  for (const auto& part : parts) {
    EXPECT_TRUE(isClique(g, part));
    for (NodeId n : part) {
      EXPECT_TRUE(seen.insert(n).second) << "node reused across cliques";
    }
  }
  EXPECT_EQ(seen.size(), 5u);
}

// Brute-force reference: enumerate all subsets (n <= 12) and keep maximal
// cliques; Bron-Kerbosch must agree exactly.
std::vector<std::vector<NodeId>> bruteForceMaximalCliques(
    const AdjacencyGraph& g) {
  const auto nodes = g.nodes();
  const std::size_t n = nodes.size();
  std::vector<std::vector<NodeId>> cliques;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<NodeId> subset;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(nodes[i]);
    }
    if (!isClique(g, subset)) continue;
    // Maximal: no node outside extends it.
    bool maximal = true;
    for (std::size_t i = 0; i < n && maximal; ++i) {
      if (mask & (1u << i)) continue;
      bool extends = true;
      for (NodeId m : subset) {
        if (!g.hasEdge(nodes[i], m)) {
          extends = false;
          break;
        }
      }
      if (extends) maximal = false;
    }
    if (maximal) cliques.push_back(subset);
  }
  std::sort(cliques.begin(), cliques.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a < b;
            });
  return cliques;
}

class RandomGraphSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphSweep, MatchesBruteForce) {
  Rng rng(GetParam());
  const std::uint32_t n = 10;
  AdjacencyGraph g;
  for (std::uint32_t i = 0; i < n; ++i) g.addNode(NodeId(i));
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.chance(0.45)) g.addEdge(NodeId(i), NodeId(j));
    }
  }
  EXPECT_EQ(maximalCliques(g), bruteForceMaximalCliques(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// The dense-bitset implementations must be byte-identical to the retained
// naive references on random graphs — same cliques, same order.
class ReferenceEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

AdjacencyGraph randomSweepGraph(std::uint64_t seed, std::uint32_t n,
                                double edgeChance) {
  Rng rng(seed);
  AdjacencyGraph g;
  // Sparse non-contiguous ids so index mapping is exercised.
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    ids.emplace_back(i * 3 + 1);
    g.addNode(ids.back());
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.chance(edgeChance)) g.addEdge(ids[i], ids[j]);
    }
  }
  return g;
}

TEST_P(ReferenceEquivalenceSweep, MaximalCliquesMatchReference) {
  for (const double edgeChance : {0.2, 0.5, 0.8}) {
    const AdjacencyGraph g =
        randomSweepGraph(GetParam() * 131 + 7, 18, edgeChance);
    EXPECT_EQ(maximalCliques(g), maximalCliquesReference(g));
  }
}

TEST_P(ReferenceEquivalenceSweep, CliquesContainingMatchReference) {
  const AdjacencyGraph g = randomSweepGraph(GetParam() * 61 + 3, 16, 0.5);
  for (NodeId node : g.nodes()) {
    EXPECT_EQ(maximalCliquesContaining(g, node),
              maximalCliquesContainingReference(g, node));
  }
  // A node absent from the graph yields nothing in both.
  EXPECT_EQ(maximalCliquesContaining(g, NodeId(999999)),
            maximalCliquesContainingReference(g, NodeId(999999)));
}

TEST_P(ReferenceEquivalenceSweep, PartitionMatchesReference) {
  for (const double edgeChance : {0.25, 0.55}) {
    const AdjacencyGraph g =
        randomSweepGraph(GetParam() * 389 + 11, 16, edgeChance);
    EXPECT_EQ(partitionIntoCliques(g), partitionIntoCliquesReference(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceEquivalenceSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace hdtn
