// Naive reference implementations kept for the equivalence tests: each is
// the direct transcription of a rule whose library version is optimized,
// and must produce output byte-identical to it on any input.
#pragma once

#include <span>
#include <vector>

#include "src/core/discovery.hpp"
#include "src/core/node.hpp"
#include "src/graph/adjacency.hpp"
#include "src/util/types.hpp"

namespace hdtn {

// The direct set-vector Bron-Kerbosch (O(|P|^2) pivot scan, full
// re-enumeration per partition round); see graph_clique_test.cpp.

[[nodiscard]] std::vector<std::vector<NodeId>> maximalCliquesReference(
    const AdjacencyGraph& graph);

[[nodiscard]] std::vector<std::vector<NodeId>> maximalCliquesContainingReference(
    const AdjacencyGraph& graph, NodeId node);

[[nodiscard]] std::vector<std::vector<NodeId>> partitionIntoCliquesReference(
    const AdjacencyGraph& graph);

namespace core {

/// Reference discovery planner: tit-for-tat rescans every candidate on
/// every turn instead of keeping per-sender heaps. The cooperative and
/// popularity-only rules have no optimized variant and defer to
/// planDiscovery. See core_planner_property_test.cpp.
[[nodiscard]] std::vector<MetadataBroadcast> planDiscoveryReference(
    std::span<const DiscoveryPeer> peers, int budget, Scheduling scheduling);

// Full-scan references for the Node query scans, which skip the expired
// prefix of the node's queries behind a watermark: each visits every
// query state. See core_node_test.cpp.

/// Node::activeQueryTexts.
[[nodiscard]] std::vector<std::string> activeQueryTextsReference(
    const Node& node, SimTime now);

/// Node::activeQueryTokens (the own half of contactQueryTokens).
[[nodiscard]] std::vector<std::vector<std::string>> activeQueryTokensReference(
    const Node& node, SimTime now);

/// Node::wantedFilesView.
[[nodiscard]] std::vector<FileId> wantedFilesReference(const Node& node,
                                                       SimTime now);

/// Node::anyQueryMatches.
[[nodiscard]] bool anyQueryMatchesReference(const Node& node,
                                            const Metadata& md, SimTime now);

/// The ids Node::acceptMetadata(md, now) selects when it stores `md`:
/// evaluated on the state before the call.
[[nodiscard]] std::vector<QueryId> metadataSelectionReference(
    const Node& node, const Metadata& md, SimTime now);

/// The ids Node::acceptPiece satisfies when `file` is complete at `now`:
/// evaluated on the state before the call.
[[nodiscard]] std::vector<QueryId> fileCompletionReference(const Node& node,
                                                           FileId file,
                                                           SimTime now);

}  // namespace core
}  // namespace hdtn
