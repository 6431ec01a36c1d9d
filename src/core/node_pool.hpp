// Contiguous pool of simulation nodes.
//
// The engine used to hold one heap allocation per node
// (vector<unique_ptr<Node>>); at city scale (10^5–10^6 nodes) that is a
// pointer chase per node visit and a malloc storm at setup. The pool stores
// nodes contiguously and keeps structure-of-arrays role views (per-role id
// lists, role bitmap) beside them so daily all-node scans touch one dense
// array instead of testing every node's options.
//
// Address stability: contact member lists and the engine's per-contact views
// (ContactViews) hold raw Node*, so the pool reserves its full capacity in
// reset() and never reallocates. emplace() past the reserved capacity is a
// programming error (asserted).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/core/node.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

class NodePool {
 public:
  /// Drops all nodes and reserves storage for exactly `count` nodes.
  void reset(std::size_t count);

  /// Constructs the next node in place. Nodes must be emplaced in id order
  /// (id == size()): the engine indexes the pool by NodeId.
  Node& emplace(NodeId id, const NodeOptions& options);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

  [[nodiscard]] Node& operator[](NodeId id) {
    assert(id.value < nodes_.size());
    return nodes_[id.value];
  }
  [[nodiscard]] const Node& operator[](NodeId id) const {
    assert(id.value < nodes_.size());
    return nodes_[id.value];
  }

  [[nodiscard]] auto begin() { return nodes_.begin(); }
  [[nodiscard]] auto end() { return nodes_.end(); }
  [[nodiscard]] auto begin() const { return nodes_.begin(); }
  [[nodiscard]] auto end() const { return nodes_.end(); }

  // --- SoA role views -----------------------------------------------------
  // Ids ascending (emplace order). The daily hot scans — access-node sync
  // and forger injection — iterate these instead of the whole pool.

  [[nodiscard]] const std::vector<NodeId>& accessIds() const {
    return accessIds_;
  }
  [[nodiscard]] const std::vector<NodeId>& forgerIds() const {
    return forgerIds_;
  }
  [[nodiscard]] std::size_t freeRiderCount() const { return freeRiders_; }

  /// O(1) role test off the packed bitmap (no Node dereference).
  [[nodiscard]] bool isAccess(NodeId id) const {
    return roleBit(id, kAccessBit);
  }
  [[nodiscard]] bool isForger(NodeId id) const {
    return roleBit(id, kForgerBit);
  }

 private:
  static constexpr std::uint64_t kAccessBit = 0;
  static constexpr std::uint64_t kForgerBit = 1;

  [[nodiscard]] bool roleBit(NodeId id, std::uint64_t bit) const {
    const std::uint64_t pos = id.value * 2 + bit;
    if (pos / 64 >= roleBits_.size()) return false;
    return (roleBits_[pos / 64] >> (pos % 64)) & 1u;
  }
  void setRoleBit(NodeId id, std::uint64_t bit) {
    const std::uint64_t pos = id.value * 2 + bit;
    roleBits_[pos / 64] |= std::uint64_t{1} << (pos % 64);
  }

  std::vector<Node> nodes_;
  /// Two bits per node (access, forger), packed.
  std::vector<std::uint64_t> roleBits_;
  std::vector<NodeId> accessIds_;
  std::vector<NodeId> forgerIds_;
  std::size_t freeRiders_ = 0;
};

}  // namespace hdtn::core
