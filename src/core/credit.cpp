#include "src/core/credit.hpp"

#include <algorithm>

namespace hdtn::core {
namespace {

template <typename Credits>
auto lowerBound(Credits& credits, NodeId peer) {
  return std::lower_bound(
      credits.begin(), credits.end(), peer,
      [](const auto& entry, NodeId key) { return entry.first < key; });
}

}  // namespace

double CreditLedger::credit(NodeId peer) const {
  const auto it = lowerBound(credits_, peer);
  return it != credits_.end() && it->first == peer ? it->second : 0.0;
}

double& CreditLedger::entry(NodeId peer) {
  auto it = lowerBound(credits_, peer);
  if (it == credits_.end() || it->first != peer) {
    it = credits_.insert(it, {peer, 0.0});
  }
  return it->second;
}

void CreditLedger::onReceivedRequested(NodeId peer) {
  entry(peer) += kRequestedCredit;
}

void CreditLedger::onReceivedUnrequested(NodeId peer, Popularity popularity) {
  entry(peer) += popularity;
}

void CreditLedger::addCredit(NodeId peer, double delta) {
  entry(peer) += delta;
}

std::vector<std::pair<NodeId, double>> CreditLedger::ranking() const {
  std::vector<std::pair<NodeId, double>> out = credits_;
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

void CreditLedger::saveState(Serializer& out) const {
  out.u64(credits_.size());
  for (const auto& [peer, credit] : credits_) {
    out.u32(peer.value);
    out.f64(credit);
  }
}

void CreditLedger::loadState(Deserializer& in) {
  credits_.clear();
  const std::size_t count = in.length(12);  // u32 peer, f64 credit
  credits_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId peer{in.u32()};
    // saveState writes ascending ids; a repeat would otherwise load as two
    // entries of one peer.
    if (!credits_.empty() && !(credits_.back().first < peer)) {
      throw SerializeError("CreditLedger: peer ids not strictly ascending");
    }
    credits_.emplace_back(peer, in.f64());
  }
}

}  // namespace hdtn::core
