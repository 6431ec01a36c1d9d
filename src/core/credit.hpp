// Tit-for-tat credit ledger.
//
// Paper Section IV-B: "Each node u maintains a credit value for each other
// node v ... if v sends to u a new metadata that matches some of u's query
// strings, then v's credit is increased by 5; otherwise, if v sends to u a
// new metadata that u is not interested in, then v's credit is increased by
// the popularity of the metadata." The same ledger drives the tit-for-tat
// file download (Section V-B): senders weigh a request by the requester's
// credit, so contributors get served earlier.
#pragma once

#include <utility>
#include <vector>

#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

/// Credit granted for an item the receiver had requested.
inline constexpr double kRequestedCredit = 5.0;

class CreditLedger {
 public:
  /// Credit this node assigns to `peer`; unknown peers have 0.
  [[nodiscard]] double credit(NodeId peer) const;

  /// Records receiving a *requested* item from `peer` (+5).
  void onReceivedRequested(NodeId peer);

  /// Records receiving an *unrequested* item from `peer` (+popularity).
  void onReceivedUnrequested(NodeId peer, Popularity popularity);

  /// Direct adjustment (tests).
  void addCredit(NodeId peer, double delta);

  [[nodiscard]] std::size_t knownPeers() const { return credits_.size(); }

  /// (peer, credit) pairs sorted by credit descending, peer ascending.
  [[nodiscard]] std::vector<std::pair<NodeId, double>> ranking() const;

  /// Checkpoints all credits, peer-id ascending.
  void saveState(Serializer& out) const;
  /// Throws SerializeError on a peer id that repeats or descends.
  void loadState(Deserializer& in);

 private:
  /// The credit entry of `peer`, inserted at 0 when unknown.
  double& entry(NodeId peer);

  /// (peer, credit), ascending peer: a node credits a handful of peers, so
  /// a binary search over one small vector beats a hash map per node.
  std::vector<std::pair<NodeId, double>> credits_;
};

}  // namespace hdtn::core
