// Maximal-clique enumeration.
//
// Broadcast-based file download (paper Section V) partitions the nodes in a
// contact window into cliques in which every member hears every other. Each
// node derives the graph from received hello messages and computes the
// maximal cliques containing it; this is Bron-Kerbosch with pivoting, which
// is exact and fast at contact-window scale (tens of nodes). The engine does
// not call it: every trace delivers each contact as one clique, which
// Engine::processContact takes as is. Only the tests and bench_micro do.
#pragma once

#include <vector>

#include "src/graph/adjacency.hpp"
#include "src/util/types.hpp"

namespace hdtn {

/// All maximal cliques of the graph. Each clique is sorted ascending;
/// cliques are sorted by (size desc, members asc) for determinism.
[[nodiscard]] std::vector<std::vector<NodeId>> maximalCliques(
    const AdjacencyGraph& graph);

/// Maximal cliques that contain the given node.
[[nodiscard]] std::vector<std::vector<NodeId>> maximalCliquesContaining(
    const AdjacencyGraph& graph, NodeId node);

/// Greedily partitions the graph into disjoint cliques: repeatedly take the
/// largest maximal clique (ties by smallest member id), remove its nodes.
/// This is how the download layer assigns each node to exactly one broadcast
/// clique when cliques would otherwise overlap. Singleton nodes come last.
[[nodiscard]] std::vector<std::vector<NodeId>> partitionIntoCliques(
    const AdjacencyGraph& graph);

/// True if `members` forms a clique (every pair adjacent) in the graph.
[[nodiscard]] bool isClique(const AdjacencyGraph& graph,
                            const std::vector<NodeId>& members);

}  // namespace hdtn
