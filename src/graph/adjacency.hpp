// Undirected adjacency structure over NodeIds: the input of the
// maximal-clique enumerator (graph/clique.hpp). In the paper (Section V)
// each node builds it from hello-message neighbor sets; no engine path
// does, since every trace delivers each contact as one clique.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/util/types.hpp"

namespace hdtn {

class AdjacencyGraph {
 public:
  /// Adds a node with no edges (idempotent).
  void addNode(NodeId n);

  /// Adds an undirected edge (idempotent); inserts endpoints as needed.
  /// Self-loops are ignored.
  void addEdge(NodeId a, NodeId b);

  void removeEdge(NodeId a, NodeId b);
  void removeNode(NodeId n);

  [[nodiscard]] bool hasNode(NodeId n) const;
  [[nodiscard]] bool hasEdge(NodeId a, NodeId b) const;
  [[nodiscard]] std::size_t nodeCount() const { return adj_.size(); }
  [[nodiscard]] std::size_t edgeCount() const { return edgeCount_; }
  [[nodiscard]] std::size_t degree(NodeId n) const;

  /// Sorted list of all nodes.
  [[nodiscard]] std::vector<NodeId> nodes() const;

  /// Sorted list of neighbors of n (empty if unknown).
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId n) const;

  [[nodiscard]] const std::unordered_set<NodeId>* neighborSet(NodeId n) const;

  /// Connected components, each sorted; components sorted by smallest id.
  [[nodiscard]] std::vector<std::vector<NodeId>> connectedComponents() const;

 private:
  std::unordered_map<NodeId, std::unordered_set<NodeId>> adj_;
  std::size_t edgeCount_ = 0;
};

}  // namespace hdtn
