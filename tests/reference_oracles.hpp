// Naive reference implementations kept for the equivalence tests: each is
// the direct transcription of a rule whose library version is optimized,
// and must produce output byte-identical to it on any input.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/coding.hpp"
#include "src/core/discovery.hpp"
#include "src/core/node.hpp"
#include "src/graph/adjacency.hpp"
#include "src/trace/trace_stats.hpp"
#include "src/util/serialize.hpp"
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

namespace coding {

/// Reference RLNC decoder: each reduced row owns a coefficient vector and a
/// payload vector, every fold copies the frame into fresh vectors, and each
/// byte goes through one gfMul call. GenerationDecoder keeps its rows in
/// flat blocks and runs a row kernel; the two must agree on every result
/// and on the saveState bytes. See core_coding_test.cpp.
class GenerationDecoderReference {
 public:
  GenerationDecoderReference(std::uint32_t generationSize,
                             std::uint32_t payloadBytes);

  bool addFrame(std::span<const std::uint8_t> coefficients,
                std::span<const std::uint8_t> payload, bool polluted,
                std::uint32_t origin);
  bool addSourcePiece(std::uint32_t piece,
                      std::span<const std::uint8_t> payload);
  [[nodiscard]] std::vector<std::uint8_t> recodeCoefficients(
      std::uint64_t seed, double sparsity,
      std::vector<std::uint8_t>* payloadOut, bool* taintedOut) const;

  [[nodiscard]] std::uint32_t rank() const { return rank_; }
  [[nodiscard]] bool complete() const { return rank_ == k_; }
  [[nodiscard]] std::uint64_t rowOps() const { return rowOps_; }
  [[nodiscard]] std::uint64_t degenerateFrames() const {
    return degenerateFrames_;
  }
  [[nodiscard]] bool tainted() const;
  [[nodiscard]] std::uint32_t pollutedRows() const;
  [[nodiscard]] std::vector<std::uint32_t> pollutedOrigins() const;
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> decode() const;
  void saveState(Serializer& out) const;

 private:
  struct Row {
    std::vector<std::uint8_t> coeffs;
    std::vector<std::uint8_t> payload;
    bool tainted = false;
    bool polluted = false;
    std::uint32_t origin = GenerationDecoder::kNoOrigin;
  };

  bool fold(std::vector<std::uint8_t> coeffs, std::vector<std::uint8_t> data,
            bool polluted, std::uint32_t origin);

  std::uint32_t k_ = 0;
  std::uint32_t payloadBytes_ = 0;
  std::uint32_t rank_ = 0;
  std::uint64_t rowOps_ = 0;
  std::uint64_t degenerateFrames_ = 0;
  std::vector<Row> rows_;
  std::vector<std::uint32_t> pivot_;
  static constexpr std::uint32_t kNoPivot = 0xffffffffu;
};

}  // namespace coding
}  // namespace core

namespace trace {

/// trace::frequentContactPairs with one ordered set of covered windows per
/// pair in an ordered map. See trace_stats_test.cpp.
[[nodiscard]] std::vector<NodePair> frequentContactPairsReference(
    const ContactTrace& trace, Duration period);

}  // namespace trace
}  // namespace hdtn
