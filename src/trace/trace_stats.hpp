// Contact-trace statistics.
//
// The engine needs the *frequent contact* relation (paper Section VI-A):
// nodes whose queries a peer stores and proxies in MBT. The paper defines it
// per trace family: DieselNet — pairs with contacts at least every 3 days;
// NUS — pairs with contacts at least once per day. We generalize to "a pair
// is frequent if in every window of `period` seconds spanned by the trace
// the pair has at least one contact".
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/trace/contact_trace.hpp"
#include "src/util/stats.hpp"
#include "src/util/types.hpp"

namespace hdtn::trace {

/// Key for a node pair with a < b.
using NodePair = std::pair<NodeId, NodeId>;

[[nodiscard]] NodePair makePair(NodeId a, NodeId b);

/// Aggregate descriptive statistics of a trace.
struct TraceSummary {
  std::size_t nodeCount = 0;
  std::size_t contactCount = 0;
  SimTime span = 0;                  ///< end of last contact
  double meanContactDuration = 0.0;  ///< seconds
  double meanCliqueSize = 0.0;
  double meanContactsPerNodePerDay = 0.0;
  double meanInterContactTime = 0.0;  ///< seconds, over pairs that meet twice
};

[[nodiscard]] TraceSummary summarize(const ContactTrace& trace);

/// Inter-contact gap samples over all pairs (start-to-start deltas).
[[nodiscard]] SampleSet interContactTimes(const ContactTrace& trace);

/// The frequent-contact relation: pair (a, b) is frequent iff the pair has
/// at least one contact in every `period`-second window of the trace span
/// (windows are aligned to trace start; a final partial window shorter than
/// half the period is ignored).
[[nodiscard]] std::vector<NodePair> frequentContactPairs(
    const ContactTrace& trace, Duration period);

/// Frequent contacts of each node, as adjacency lists indexed by node id.
[[nodiscard]] std::vector<std::vector<NodeId>> frequentContactLists(
    const ContactTrace& trace, Duration period);

/// The paper's per-trace frequent-contact periods.
inline constexpr Duration kDieselNetFrequentPeriod = 3 * kDay;
inline constexpr Duration kNusFrequentPeriod = 1 * kDay;

}  // namespace hdtn::trace
