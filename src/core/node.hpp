// A hybrid-DTN node: the paper's per-device state.
//
// Each node runs a file discovery process and a file download process
// (Section III-B). This class owns the node's stores (metadata, pieces),
// its credit ledger, its own user queries, and the cooperative state the
// protocols need: stored query strings of frequent contacts (MBT query
// proxying, Section IV) and stored "requesting URIs" heard in hellos (so an
// Internet-access node can fetch files on behalf of peers).
//
// Query lifecycle: a query is *advertised* until a matching metadata record
// is stored (the simulated user then "selects" the best match); from then on
// the chosen file's URI is advertised as wanted until the file completes or
// the query expires.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/credit.hpp"
#include "src/core/metadata_store.hpp"
#include "src/core/piece_store.hpp"
#include "src/core/query.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

class FileCatalog;
class Node;
struct ProtocolConfig;

/// One contact's hello exchange among `members` (paper Section IV). Each
/// member advertises its active query texts and its wanted URIs: the files
/// it is downloading and, under MBT, the fresh "requesting URIs" it stored
/// from earlier hellos, so a request travels multiple hops toward an access
/// node. Under MBT every member stores each contributing peer's query texts
/// (kept for frequent contacts only); under MBT and MBT-Q every member
/// stores every URI some *other* member advertised.
///
/// Equivalent to every member storing every other member's hello in turn,
/// but linear in the clique: all stores stamp the same `now`, so repeated
/// writes of one URI are idempotent and each member stores each URI once.
void exchangeHellos(std::span<Node* const> members,
                    const ProtocolConfig& protocol, const FileCatalog& catalog,
                    SimTime now);

struct NodeOptions {
  /// True for Internet-access nodes ("they can download the files they
  /// need" directly; the metrics exclude them).
  bool internetAccess = false;
  /// Free-riders receive but never transmit (tit-for-tat evaluation).
  bool freeRider = false;
  /// Piece-storage capacity in pieces; 0 = unbounded (the paper's model).
  /// Bounded stores evict pieces of the lowest-popularity incomplete file.
  std::size_t pieceCapacity = 0;
  /// Metadata-record capacity; 0 = unbounded. Bounded stores shed the
  /// least-popular record (oldest first at ties) under capacity pressure.
  std::size_t metadataCapacity = 0;
  /// Forgers inject fake metadata mimicking popular files (threat model).
  bool forger = false;
};

class Node {
 public:
  Node(NodeId id, NodeOptions options);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const NodeOptions& options() const { return options_; }
  [[nodiscard]] bool contributes() const { return !options_.freeRider; }

  [[nodiscard]] MetadataStore& metadata() { return metadata_; }
  [[nodiscard]] const MetadataStore& metadata() const { return metadata_; }
  [[nodiscard]] PieceStore& pieces() { return pieces_; }
  [[nodiscard]] const PieceStore& pieces() const { return pieces_; }
  [[nodiscard]] CreditLedger& credits() { return credits_; }
  [[nodiscard]] const CreditLedger& credits() const { return credits_; }

  // --- own queries -------------------------------------------------------

  void addQuery(const Query& query);

  /// Texts of queries still searching for metadata at `now` (advertised in
  /// hellos). Cached per (state generation, now): the engine asks several
  /// times per contact (hello, discovery, download) and only the first call
  /// does any work. The reference is valid until the node state mutates.
  [[nodiscard]] const std::vector<std::string>& activeQueryTexts(
      SimTime now) const;

  /// Tokenized forms of the queries this node wants served during a contact:
  /// its own active queries plus, when `includeProxied`, the stored queries
  /// of its frequent contacts (MBT). Query texts are tokenized once when
  /// first seen, not per contact; the combined list is cached like
  /// activeQueryTexts. Feed to DiscoveryPeer::tokenizedQueries.
  [[nodiscard]] const std::vector<std::vector<std::string>>&
  contactQueryTokens(SimTime now, bool includeProxied) const;

  /// Files the node is currently downloading, ascending: a metadata was
  /// selected for an unexpired query and the file is not yet complete.
  /// Cached: the engine consults the wanted list several times per contact
  /// (hellos, planners, repair) and DownloadPeer::wanted views this storage
  /// instead of copying it. The reference is valid until the node state
  /// mutates.
  [[nodiscard]] const std::vector<FileId>& wantedFilesView(SimTime now) const;

  /// True if some active (unexpired, metadata-pending) query matches `md`.
  [[nodiscard]] bool anyQueryMatches(const Metadata& md, SimTime now) const;

  /// Per-query state, for metrics and tests.
  struct QueryState {
    Query query;
    /// query.text tokenized once at addQuery time (hot paths match against
    /// tokens; the text itself is only sent in hellos).
    std::vector<std::string> tokens;
    bool metadataFound = false;
    FileId chosenFile;  ///< valid once metadataFound
    bool fileFound = false;
  };
  [[nodiscard]] const std::vector<QueryState>& queryStates() const {
    return queries_;
  }

  // --- store update hooks (called by the engine when data arrives) -------

  /// Optional authenticity check applied before any record is accepted
  /// (paper Section III-B field (f): "authentication information of the
  /// metadata against fake publishers"). Unset = accept everything.
  using MetadataVerifier = std::function<bool(const Metadata&)>;
  void setMetadataVerifier(MetadataVerifier verifier) {
    verifier_ = std::move(verifier);
  }

  /// Stores a metadata record; attaches it to any matching pending queries
  /// (the user selects it) and registers the file for download. Returns ids
  /// of queries that selected this record. Records failing the verifier are
  /// dropped (nothing stored, nothing selected) and remembered in
  /// rejectedMetadata() so peers stop re-sending them. The store shares
  /// `md` rather than copying it (MetadataStore::add).
  std::vector<QueryId> acceptMetadata(const SharedMetadata& md, SimTime now);
  /// Accepts a new object holding `md` (tests and the wire Device).
  std::vector<QueryId> acceptMetadata(const Metadata& md, SimTime now) {
    return acceptMetadata(std::make_shared<const Metadata>(md), now);
  }

  /// File ids of records this node refused (failed verification). Exposed
  /// to the discovery planner: a rejected record counts as "already held"
  /// so it is never re-broadcast to this node.
  [[nodiscard]] const std::unordered_set<FileId>& rejectedMetadata() const {
    return rejectedMetadata_;
  }

  /// Records that `sender` delivered a record that failed verification.
  /// After kDistrustThreshold offences the sender is distrusted: this node
  /// ignores everything it transmits (a forger minting fresh fake ids every
  /// day would otherwise burn one broadcast slot per id per clique).
  void noteRejectedFrom(NodeId sender);
  [[nodiscard]] bool distrusts(NodeId peer) const {
    return distrustedPeers_.contains(peer);
  }
  [[nodiscard]] const std::unordered_set<NodeId>& distrustedPeers() const {
    return distrustedPeers_;
  }

  static constexpr int kDistrustThreshold = 2;

  /// Stores one piece (registering the file first when needed). Returns ids
  /// of queries satisfied because the file just completed.
  std::vector<QueryId> acceptPiece(FileId file, std::uint32_t piece,
                                   std::uint32_t pieceCount, SimTime now);

  /// Drops expired metadata and forgets stale cooperative state. Returns
  /// without scanning while the stamp watermarks prove nothing is stale.
  void expire(SimTime now);

  // --- cooperative state --------------------------------------------------

  void setFrequentContacts(std::vector<NodeId> contacts);
  [[nodiscard]] const std::vector<NodeId>& frequentContacts() const {
    return frequentContacts_;
  }
  [[nodiscard]] bool isFrequentContact(NodeId peer) const;

  /// Replaces the stored query strings of a frequent contact (MBT). Calls
  /// for non-frequent peers are ignored (and copy nothing).
  void storePeerQueries(NodeId peer, const std::vector<std::string>& texts,
                        SimTime now);

  /// Stored frequent-contact query texts still fresh at `now` (deduplicated,
  /// sorted). Cached like activeQueryTexts; valid until the next mutation.
  [[nodiscard]] const std::vector<std::string>& proxiedQueryTexts(
      SimTime now) const;

  /// Remembers URIs that peers advertised as wanted ("requesting URIs").
  void storePeerWants(const std::vector<Uri>& uris, SimTime now);

  /// Peer-wanted URIs still fresh at `now`, sorted.
  [[nodiscard]] std::vector<Uri> peerWantedUris(SimTime now) const;

  /// Freshness horizon for proxied queries and peer wants.
  void setCooperativeStateTtl(Duration ttl) { cooperativeTtl_ = ttl; }

  /// Checkpoints the node's mutable protocol state: stores, credits, query
  /// lifecycle, distrust bookkeeping, and cooperative state. Construction
  /// state (id, options, verifier, frequent contacts, cooperative TTL) is
  /// reconstructed deterministically by Engine setup and not serialized.
  /// loadState re-shares metadata records through `interner`.
  void saveState(Serializer& out) const;
  void loadState(Deserializer& in, MetadataInterner& interner);

 private:
  friend void exchangeHellos(std::span<Node* const>, const ProtocolConfig&,
                             const FileCatalog&, SimTime);

  /// Stamps one peer-wanted URI at `now`; refreshing a known URI builds no
  /// string.
  void storePeerWant(std::string_view uri, SimTime now);

  /// Hashes std::string and std::string_view alike, so peerWants_ lookups
  /// by view need no temporary string.
  struct UriHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view uri) const {
      return std::hash<std::string_view>{}(uri);
    }
  };

  NodeId id_;
  NodeOptions options_;
  MetadataVerifier verifier_;
  std::unordered_set<FileId> rejectedMetadata_;
  std::unordered_map<NodeId, int> rejectionsFrom_;
  std::unordered_set<NodeId> distrustedPeers_;
  MetadataStore metadata_;
  PieceStore pieces_;
  CreditLedger credits_;
  std::vector<QueryState> queries_;

  std::vector<NodeId> frequentContacts_;
  struct StoredQueries {
    std::vector<std::string> texts;
    SimTime storedAt = 0;
  };
  std::unordered_map<NodeId, StoredQueries> peerQueries_;
  std::unordered_map<Uri, SimTime, UriHash, std::equal_to<>> peerWants_;
  Duration cooperativeTtl_ = 3 * kDay;

  // Expiry watermarks: lower bounds on the oldest peerQueries_ / peerWants_
  // stamp (kNoStamp when the map is empty). expire() scans a map only when
  // its bound is older than `now - cooperativeTtl_`; a scan, and loadState,
  // recompute the bound exactly. Not serialized.
  static constexpr SimTime kNoStamp = std::numeric_limits<SimTime>::max();
  SimTime oldestQueryStamp_ = kNoStamp;
  SimTime oldestWantStamp_ = kNoStamp;

  // --- per-contact caches -------------------------------------------------
  // The engine asks for the same derived views several times per contact
  // (hello exchange, discovery planning, access sync), always at the same
  // `now`. Each cache is valid while (generation, now) both match; any
  // mutation of query/cooperative state bumps stateGen_ (0 is reserved so
  // default-constructed caches start stale).
  template <typename T>
  struct ContactCache {
    std::uint64_t generation = 0;
    SimTime at = 0;
    T value;
  };
  void touch() { ++stateGen_; }

  std::uint64_t stateGen_ = 1;
  mutable ContactCache<std::vector<std::string>> activeTextsCache_;
  mutable ContactCache<std::vector<std::string>> proxiedTextsCache_;
  mutable ContactCache<std::vector<std::vector<std::string>>>
      ownTokensCache_;
  mutable ContactCache<std::vector<std::vector<std::string>>>
      combinedTokensCache_;
  mutable ContactCache<std::vector<FileId>> wantedCache_;
};

}  // namespace hdtn::core
