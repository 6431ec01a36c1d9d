// Naive reference implementations kept for the equivalence tests: each is
// the direct transcription of a rule whose library version is optimized,
// and must produce output byte-identical to it on any input.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/access_sync.hpp"
#include "src/core/coding.hpp"
#include "src/core/discovery.hpp"
#include "src/core/download.hpp"
#include "src/core/internet.hpp"
#include "src/core/node.hpp"
#include "src/core/protocol.hpp"
#include "src/trace/trace_stats.hpp"
#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn {

namespace core {

/// Reference discovery planner: candidates are collected member by member
/// into an ordered map and matched with queryTokensMatch, the cooperative
/// rules fully sort them, and tit-for-tat rescans every candidate on every
/// turn instead of keeping per-sender heaps. See
/// core_planner_property_test.cpp.
[[nodiscard]] std::vector<MetadataBroadcast> planDiscoveryReference(
    std::span<const DiscoveryPeer> peers, int budget, Scheduling scheduling);

/// Reference broadcast download planner (cooperative, popularity-only and
/// tit-for-tat): an ordered map from (file, piece) to a candidate with
/// holder, lacker and requester vectors, built by probing every member's
/// store once per piece; the cooperative rules fully sort the candidates
/// and tit-for-tat marks sent pieces in an ordered set. The registry's
/// planners merge the stores' sorted runs into flat arrays instead. See
/// core_planner_property_test.cpp.
[[nodiscard]] DownloadPlan planDownloadReference(
    std::span<const DownloadPeer> peers, const PopularityFn& popularityOf,
    int budgetPieces, Scheduling scheduling, PushOrder pushOrder);

/// Reference piece store: one hash-map entry per file and a sorted files()
/// copy rebuilt after a registration or removal. PieceStore keeps one
/// vector of entries sorted by file id; the two must agree on every query
/// and on the saveState bytes after any sequence of operations. See
/// core_piece_store_test.cpp.
class PieceStoreReference {
 public:
  PieceStoreReference() = default;
  explicit PieceStoreReference(std::size_t capacityPieces)
      : capacity_(capacityPieces) {}

  bool registerFile(FileId file, std::uint32_t pieceCount);
  bool addPiece(FileId file, std::uint32_t piece);
  std::uint32_t addWholeFile(FileId file);
  void removeFile(FileId file);
  [[nodiscard]] bool isRegistered(FileId file) const;
  [[nodiscard]] bool hasPiece(FileId file, std::uint32_t piece) const;
  [[nodiscard]] bool isComplete(FileId file) const;
  [[nodiscard]] std::uint32_t piecesHeld(FileId file) const;
  [[nodiscard]] std::uint32_t pieceCount(FileId file) const;
  [[nodiscard]] std::vector<std::uint32_t> missingPieces(FileId file) const;
  [[nodiscard]] const std::vector<FileId>& files() const;
  [[nodiscard]] std::vector<FileId> completeFiles() const;
  [[nodiscard]] std::size_t totalPiecesHeld() const { return totalHeld_; }
  [[nodiscard]] std::size_t arenaWords() const { return arena_.size(); }
  void setPriority(FileId file, double priority);
  void saveState(Serializer& out) const;

 private:
  struct Entry {
    std::uint32_t word = 0;
    std::uint32_t pieces = 0;
    std::uint32_t held = 0;
    double priority = 0.0;
    std::uint64_t seq = 0;
  };
  static std::uint32_t wordsFor(std::uint32_t pieces) {
    return (pieces + 63) / 64;
  }
  [[nodiscard]] bool bit(const Entry& e, std::uint32_t piece) const {
    return (arena_[e.word + piece / 64] >> (piece % 64)) & 1u;
  }
  std::uint32_t allocWords(std::uint32_t words);
  void evictOnePiece();

  std::unordered_map<FileId, Entry> entries_;
  std::vector<std::uint64_t> arena_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> freeBlocks_;
  std::size_t totalHeld_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::optional<std::size_t> capacity_;
  mutable std::vector<FileId> filesView_;
  mutable bool filesViewStale_ = false;
};

/// Reference credit ledger: the hash map from peer to credit that
/// CreditLedger kept before it became one vector sorted by peer. The two
/// must agree on credit(), knownPeers(), ranking() and the saveState bytes
/// after any sequence of operations. See core_credit_test.cpp.
class CreditLedgerReference {
 public:
  [[nodiscard]] double credit(NodeId peer) const;
  void onReceivedRequested(NodeId peer);
  void onReceivedUnrequested(NodeId peer, Popularity popularity);
  void addCredit(NodeId peer, double delta);
  void decay(double factor);
  [[nodiscard]] std::size_t knownPeers() const { return credits_.size(); }
  [[nodiscard]] std::vector<std::pair<NodeId, double>> ranking() const;
  void saveState(Serializer& out) const;

 private:
  std::unordered_map<NodeId, double> credits_;
};

// The text-keyed search the library ran before queries were matched as
// objects: each text is tokenized again and matched against every
// candidate's keywords with queryMatches. See core_query_match_test.cpp.

/// rankMatches over a query text: filters `candidates` by queryMatches and
/// sorts by (score desc, file id asc), the score being the popularity plus
/// 0.001 / (1 + keyword count).
[[nodiscard]] std::vector<RankedMatch> rankMatchesReference(
    const std::string& queryText, std::span<const Metadata* const> candidates);
/// InternetServices::search over a query text: rankMatchesReference over
/// the catalog's records of every file alive at `now`, found by a scan of
/// the whole catalog.
[[nodiscard]] std::vector<RankedMatch> searchReference(
    const InternetServices& internet, const std::string& queryText,
    SimTime now);
/// The best match for `queryText` in `store`, or nullptr.
[[nodiscard]] const Metadata* bestMatchReference(const std::string& queryText,
                                                 const MetadataStore& store);

// Full-scan references for the Node query scans, which skip the expired
// prefix of the node's queries behind a watermark: each visits every
// query state. See core_node_test.cpp.

/// The texts of Node::activeQueries.
[[nodiscard]] std::vector<std::string> activeQueryTextsReference(
    const Node& node, SimTime now);

/// The objects of Node::activeQueries.
[[nodiscard]] std::vector<SharedQuery> activeQueriesReference(
    const Node& node, SimTime now);

/// The token lists of Node::activeQueries (the own half of
/// ContactViews::contactQueries).
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

/// A node's checkpoint bytes, written with a reference table of its own.
[[nodiscard]] std::string nodeStateBytes(const Node& node);

/// Restores `bytes` (one node's save in the current format) into `node`,
/// re-sharing records and queries through the interners.
void loadNodeState(Node& node, const std::string& bytes,
                   MetadataInterner& records, QueryInterner& queries);

// The string-based cooperative state Node kept before it stored peer
// wants as catalog file ids and deduplicated stored peer queries by
// object, with the hello exchange, the proxied-query view and the access
// sync that read it. See core_cooperative_state_test.cpp.

/// A Node whose cooperative state lives beside it: peer wants in a
/// URI-keyed map, stored peer queries as lists whose proxied view is
/// deduplicated by text through a std::set. The Node holds everything else
/// (its own cooperative state stays empty); saveState writes the bytes
/// Node::saveState writes for the two together.
struct ReferenceNode {
  ReferenceNode(Node node, Duration cooperativeTtl)
      : node(std::move(node)), ttl(cooperativeTtl) {}

  /// Node::storePeerQueries: kept for frequent contacts only.
  void storePeerQueries(NodeId peer, const std::vector<SharedQuery>& queries,
                        SimTime now);
  /// Fresh stored texts, deduplicated through a std::set.
  [[nodiscard]] std::vector<std::string> proxiedQueryTexts(SimTime now) const;
  void storePeerWants(const std::vector<Uri>& uris, SimTime now);
  /// Fresh peer-wanted URIs, sorted.
  [[nodiscard]] std::vector<Uri> peerWantedUris(SimTime now) const;
  /// ContactViews::contactQueries as token lists: the own active queries'
  /// tokens, then each proxied text re-tokenized.
  [[nodiscard]] std::vector<std::vector<std::string>> contactQueryTokens(
      SimTime now, bool includeProxied) const;
  /// Node::expire, scanning every stamp.
  void expire(SimTime now);
  /// Wants are saved as the ids `catalog` gives their URIs.
  [[nodiscard]] std::string saveState(const FileCatalog& catalog) const;

  Node node;
  Duration ttl;
  struct StoredQueries {
    std::vector<SharedQuery> queries;
    SimTime storedAt = 0;
  };
  std::unordered_map<NodeId, StoredQueries> peerQueries;
  std::unordered_map<Uri, SimTime> peerWants;
};

/// exchangeHellos over ReferenceNodes: every advertised URI goes through a
/// string_view-keyed hash map, and every member stores each URI some other
/// member advertised.
void exchangeHellosReference(std::span<ReferenceNode* const> members,
                             const ProtocolConfig& protocol,
                             const FileCatalog& catalog, SimTime now);

/// AccessSync over ReferenceNodes: a per-node search cache for every node,
/// the carry stock and the peer wants visited at every sync, the wants in
/// the order of a sorted copy of their URIs, each re-resolved through the
/// catalog.
class AccessSyncReference {
 public:
  AccessSyncReference(const InternetServices& internet,
                      AccessSync::Config config)
      : internet_(internet), config_(config) {}

  void beginEpoch(SimTime publishAt);
  void sync(ReferenceNode& node, SimTime now, AccessSync::Host& host);
  void saveState(Serializer& out, std::size_t nodeCount) const;

 private:
  const InternetServices& internet_;
  AccessSync::Config config_;
  SimTime lastPublishAt_ = -1;
  std::vector<SharedMetadata> topPopular_;
  std::vector<std::unordered_map<std::string, SimTime>> searchCache_;
};

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
