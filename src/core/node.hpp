// A hybrid-DTN node: the paper's per-device state.
//
// Each node runs a file discovery process and a file download process
// (Section III-B). This class owns the node's stores (metadata, pieces),
// its credit ledger, its own user queries, and the cooperative state the
// protocols need: stored queries of frequent contacts (MBT query proxying,
// Section IV) and stored "requesting URIs" heard in hellos (so an
// Internet-access node can fetch files on behalf of peers). Both refer to
// shared state rather than copy strings: a stored query is the peer's own
// query object, and a requesting URI is kept as the catalog file it names.
//
// Query lifecycle: a query is *advertised* until a matching metadata record
// is stored (the simulated user then "selects" the best match); from then on
// the chosen file's URI is advertised as wanted until the file completes or
// the query expires.
#pragma once

#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/credit.hpp"
#include "src/core/metadata_store.hpp"
#include "src/core/piece_store.hpp"
#include "src/core/query.hpp"
#include "src/util/clone_ptr.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

class ContactViews;
class FileCatalog;
class Node;
struct ProtocolConfig;

/// One contact's hello exchange among `members` (paper Section IV). Each
/// member advertises its active queries and its wanted URIs: the files it
/// is downloading and, under MBT, the fresh "requesting URIs" it stored
/// from earlier hellos, so a request travels multiple hops toward an access
/// node. Under MBT every member stores each contributing peer's query
/// objects (kept for frequent contacts only); under MBT and MBT-Q every
/// member stores every file some *other* member advertised. URIs travel as
/// catalog file ids; a wanted file the catalog does not know is not
/// advertised. `views` is the caller's per-contact scratch (ContactViews).
///
/// Equivalent to every member storing every other member's hello in turn,
/// but linear in the clique: all stores stamp the same `now`, so repeated
/// writes of one file are idempotent and each member stores each file once.
void exchangeHellos(std::span<Node* const> members,
                    const ProtocolConfig& protocol, const FileCatalog& catalog,
                    SimTime now, ContactViews& views);

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
  /// The construction options. The capacities are read back from the
  /// stores, which hold them; the node keeps only its role flags.
  [[nodiscard]] NodeOptions options() const {
    return {.internetAccess = internetAccess_,
            .freeRider = freeRider_,
            .pieceCapacity = pieces_.capacity().value_or(0),
            .metadataCapacity = metadata_.capacity().value_or(0),
            .forger = forger_};
  }
  [[nodiscard]] bool contributes() const { return !freeRider_; }

  [[nodiscard]] MetadataStore& metadata() { return metadata_; }
  [[nodiscard]] const MetadataStore& metadata() const { return metadata_; }
  [[nodiscard]] PieceStore& pieces() { return pieces_; }
  [[nodiscard]] const PieceStore& pieces() const { return pieces_; }
  [[nodiscard]] CreditLedger& credits() { return credits_; }
  [[nodiscard]] const CreditLedger& credits() const { return credits_; }

  // --- own queries -------------------------------------------------------

  /// Adds query `id`, sharing `query` (the engine passes one object per
  /// file to every node that issues it).
  void addQuery(QueryId id, SharedQuery query);
  /// Adds `query` with a new query object of its own (tests). The owner is
  /// this node.
  void addQuery(const Query& query);

  /// Queries still searching for metadata at `now` (advertised in hellos),
  /// in issue order: the objects a hello hands to peers. ContactViews caches
  /// this per contact.
  [[nodiscard]] std::vector<SharedQuery> activeQueries(SimTime now) const;

  /// Files the node is currently downloading, ascending: a metadata was
  /// selected for an unexpired query and the file is not yet complete. A
  /// fresh vector; ContactViews::wantedFiles caches it per contact.
  [[nodiscard]] std::vector<FileId> wantedFilesView(SimTime now) const;

  /// True if some active (unexpired, metadata-pending) query matches `md`.
  [[nodiscard]] bool anyQueryMatches(const Metadata& md, SimTime now) const;

  /// Per-query state, for metrics and tests: 32 bytes, the query itself
  /// shared with every other node asking for the same file.
  struct QueryState {
    SharedQuery query;
    QueryId id;
    FileId chosenFile;  ///< valid once metadataFound
    bool metadataFound = false;
    bool fileFound = false;
  };
  /// Every query the node was ever given, in the order it got them
  /// (expired ones included: checkpoints save them all).
  [[nodiscard]] const std::vector<QueryState>& queryStates() const {
    return queries_;
  }

  /// Bumped by every mutation of query or cooperative state; ContactViews
  /// keys its cached views on it.
  [[nodiscard]] std::uint64_t stateGeneration() const { return stateGen_; }

  // --- store update hooks (called by the engine when data arrives) -------

  /// What acceptMetadata did with a record.
  struct Accepted {
    /// The store did not hold the record and now does.
    bool added = false;
    /// The queries that selected the record.
    std::vector<QueryId> selected;
  };

  /// Stores a metadata record; attaches it to any matching pending queries
  /// (the user selects it) and registers the file for download. The store
  /// shares `md` rather than copying it (MetadataStore::add); a record the
  /// bounded store sheds to make room (or refuses) goes to `shed` when
  /// given. Authenticity (paper Section III-B field (f)) is the caller's
  /// check: a record that fails it goes to rejectMetadata() instead.
  Accepted acceptMetadata(const SharedMetadata& md, SimTime now,
                          SharedMetadata* shed = nullptr);
  /// Accepts a new object holding `md` (tests).
  Accepted acceptMetadata(const Metadata& md, SimTime now) {
    return acceptMetadata(std::make_shared<const Metadata>(md), now);
  }

  /// Remembers that this node refused `file` (it failed verification), so
  /// peers stop re-sending it.
  void rejectMetadata(FileId file);

  /// File ids of records this node refused (failed verification). Exposed
  /// to the discovery planner: a rejected record counts as "already held"
  /// so it is never re-broadcast to this node.
  [[nodiscard]] const std::unordered_set<FileId>& rejectedMetadata() const;

  /// Records that `sender` delivered a record that failed verification.
  /// After kDistrustThreshold offences the sender is distrusted: this node
  /// ignores everything it transmits (a forger minting fresh fake ids every
  /// day would otherwise burn one broadcast slot per id per clique).
  void noteRejectedFrom(NodeId sender);
  [[nodiscard]] bool distrusts(NodeId peer) const {
    return rejections_ && rejections_->distrusted.contains(peer);
  }
  [[nodiscard]] const std::unordered_set<NodeId>& distrustedPeers() const;

  static constexpr int kDistrustThreshold = 2;

  /// Stores one piece (registering the file first when needed). Returns ids
  /// of queries satisfied because the file just completed.
  std::vector<QueryId> acceptPiece(FileId file, std::uint32_t piece,
                                   std::uint32_t pieceCount, SimTime now);

  /// Drops expired metadata and forgets stale cooperative state. Returns
  /// without scanning while the stamp watermarks prove nothing is stale.
  void expire(SimTime now);

  // --- cooperative state --------------------------------------------------

  /// Sets the frequent-contact relation (MBT query proxying stores queries
  /// of these peers only). A node without frequent contacts allocates no
  /// proxy state at all.
  void setFrequentContacts(std::vector<NodeId> contacts);
  [[nodiscard]] bool isFrequentContact(NodeId peer) const;

  /// Replaces the stored queries of a frequent contact (MBT) with the
  /// peer's own query objects. Calls for non-frequent peers are ignored.
  void storePeerQueries(NodeId peer, std::span<const SharedQuery> queries,
                        SimTime now);

  /// Stored frequent-contact queries still fresh at `now`, one per distinct
  /// text, in text order. ContactViews::contactQueries caches them per
  /// contact, after the node's own. The node keeps the list until the set
  /// of stored objects changes or a listed peer's stamp passes the TTL, so
  /// restamping the same queries rebuilds nothing. Valid until the next
  /// call on this node.
  [[nodiscard]] const std::vector<const FileQuery*>& proxiedQueries(
      SimTime now) const;

  /// The texts of proxiedQueries(now).
  [[nodiscard]] std::vector<std::string> proxiedQueryTexts(SimTime now) const;

  /// The catalog that peer wants resolve against (a want is stored as the
  /// file its URI names) and whose record
  /// objects the node's queries match through their match rows
  /// (matches()). The engine sets its own catalog on every node; without
  /// one a node stores no peer wants and matches every record directly.
  void setCatalog(const FileCatalog* catalog) { catalog_ = catalog; }

  /// Remembers URIs that peers advertised as wanted ("requesting URIs").
  /// A URI the catalog does not know is dropped: no access node could
  /// fetch it.
  void storePeerWants(const std::vector<Uri>& uris, SimTime now);

  /// Files peers want that are still fresh at `now`, ascending id.
  [[nodiscard]] std::vector<FileId> peerWantedFiles(SimTime now) const;

  /// Whether pred(file) holds for every file of peerWantedFiles(now),
  /// without building that list.
  template <typename Pred>
  [[nodiscard]] bool allPeerWantedFiles(SimTime now, Pred&& pred) const {
    for (const PeerWant& want : peerWants_) {
      if (now - want.stamp <= cooperativeTtl_ && !pred(want.file)) {
        return false;
      }
    }
    return true;
  }

  /// The URIs of peerWantedFiles(now), sorted.
  [[nodiscard]] std::vector<Uri> peerWantedUris(SimTime now) const;

  /// Freshness horizon for proxied queries and peer wants.
  void setCooperativeStateTtl(Duration ttl) { cooperativeTtl_ = ttl; }

  /// Checkpoints the node's mutable protocol state: stores, credits, query
  /// lifecycle, distrust bookkeeping, and cooperative state. Construction
  /// state (id, options, frequent contacts, cooperative TTL, catalog) is
  /// reconstructed deterministically by Engine setup and not serialized.
  /// Records and query objects, stored peer queries included, are written
  /// as references into `refs`' tables; peer wants as (file id, stamp) in
  /// id order. loadState re-shares them through `refs`. A saved peer want
  /// the node's catalog lacks, or wants out of id order, is a
  /// SerializeError.
  void saveState(Serializer& out, StateRefWriter& refs) const;
  void loadState(Deserializer& in, StateRefReader& refs);

 private:
  friend void exchangeHellos(std::span<Node* const>, const ProtocolConfig&,
                             const FileCatalog&, SimTime, ContactViews&);

  /// Index of the first query a scan at `now` must visit. Queries before
  /// the watermark firstLive_ all expired by prefixExpiresBy_, so a scan at
  /// or after that time skips them; an earlier `now` (only tests ask about
  /// the past) scans from the start. Advances the watermark over queries
  /// expired at `now`: the engine issues queries in issue order with one
  /// TTL, so its expired queries form a prefix.
  [[nodiscard]] std::size_t firstLiveQuery(SimTime now) const;
  [[nodiscard]] std::span<const QueryState> liveQueries(SimTime now) const {
    return std::span<const QueryState>(queries_).subspan(firstLiveQuery(now));
  }
  [[nodiscard]] std::span<QueryState> liveQueries(SimTime now) {
    return std::span<QueryState>(queries_).subspan(firstLiveQuery(now));
  }

  /// Stamps `files` (ascending, distinct) as peer-wanted at `now`: one
  /// merge into peerWants_.
  void stampPeerWants(std::span<const FileId> files, SimTime now);

  void touch() { ++stateGen_; }

  /// One peer-wanted file and when it was last advertised.
  struct PeerWant {
    FileId file;
    SimTime stamp = 0;
  };

  /// Verification bookkeeping. Only runs with forgers ever reject a record,
  /// so the node allocates it on the first rejection.
  struct Rejections {
    std::unordered_set<FileId> files;
    std::unordered_map<NodeId, int> offences;
    std::unordered_set<NodeId> distrusted;
  };

  static constexpr SimTime kNoStamp = std::numeric_limits<SimTime>::max();

  /// MBT query proxying: the frequent-contact relation and the queries
  /// stored from those peers. Allocated when the node gets frequent
  /// contacts (or a checkpoint restores stored queries).
  struct ProxyState {
    std::vector<NodeId> frequentContacts;  ///< sorted
    struct StoredQueries {
      std::vector<SharedQuery> queries;
      SimTime storedAt = 0;
    };
    std::unordered_map<NodeId, StoredQueries> peerQueries;
    /// Lower bound on the oldest peerQueries stamp (kNoStamp when empty);
    /// see oldestWantStamp_.
    SimTime oldestStamp = kNoStamp;
    /// proxiedQueries() as built at `listedAt`. It answers for every `now`
    /// from then to `listedUntil`, the last instant all listed peers are
    /// fresh, while no stored object set changes (unlist()).
    std::vector<const FileQuery*> list;
    SimTime listedAt = 0;
    SimTime listedUntil = std::numeric_limits<SimTime>::min();

    void unlist() { listedUntil = std::numeric_limits<SimTime>::min(); }
  };

  NodeId id_;
  /// Query watermark (see firstLiveQuery). Recomputed, never serialized.
  mutable std::uint32_t firstLive_ = 0;
  mutable SimTime prefixExpiresBy_ = std::numeric_limits<SimTime>::min();
  std::uint64_t stateGen_ = 1;
  MetadataStore metadata_;
  PieceStore pieces_;
  CreditLedger credits_;
  std::vector<QueryState> queries_;
  std::vector<PeerWant> peerWants_;  ///< ascending file id
  const FileCatalog* catalog_ = nullptr;
  // Expiry watermark: a lower bound on the oldest peerWants_ stamp
  // (kNoStamp when the map is empty). expire() scans the map only when the
  // bound is older than `now - cooperativeTtl_`; a scan, and loadState,
  // recompute the bound exactly. Not serialized. ProxyState::oldestStamp
  // does the same for stored peer queries.
  SimTime oldestWantStamp_ = kNoStamp;
  Duration cooperativeTtl_ = 3 * kDay;
  ClonePtr<ProxyState> proxy_;
  ClonePtr<Rejections> rejections_;
  bool internetAccess_ = false;
  bool freeRider_ = false;
  bool forger_ = false;
};

static_assert(sizeof(Node) <= 512,
              "Node is stored inline in NodePool: keep per-node state "
              "compact (docs/PERFORMANCE.md, \"Memory\")");

/// Per-contact scratch for the views a contact asks of its members several
/// times (hello exchange, access sync, discovery and download planning,
/// repair). Each Engine owns one, so a ShardedEngine component never shares
/// its scratch with another component. A cached view stays valid while its
/// node's state generation and `now` both match, so a node mutated mid
/// contact recomputes on its next ask. Returned references stay valid until
/// the same view of the same node is recomputed, or until clear().
class ContactViews {
 public:
  /// Forgets every node (slots keep their storage for reuse). The engine
  /// calls this before each contact and each publish-time access sync.
  void clear() { used_ = 0; }

  [[nodiscard]] const std::vector<SharedQuery>& activeQueries(
      const Node& node, SimTime now);
  /// The queries `node` wants served during a contact: its own active
  /// queries plus, when `includeProxied`, the stored queries of its
  /// frequent contacts (MBT). Feed to DiscoveryPeer::queryObjects; the
  /// access sync searches the server for the same list.
  [[nodiscard]] const std::vector<const FileQuery*>& contactQueries(
      const Node& node, SimTime now, bool includeProxied);
  /// Node::wantedFilesView, cached; DownloadPeer::wanted views this
  /// storage.
  [[nodiscard]] const std::vector<FileId>& wantedFiles(const Node& node,
                                                       SimTime now);

 private:
  template <typename T>
  struct Cached {
    std::uint64_t generation = 0;  ///< 0 = stale (node generations start at 1)
    SimTime at = 0;
    T value;
  };
  struct Slot {
    const Node* node = nullptr;
    Cached<std::vector<SharedQuery>> active;
    Cached<std::vector<const FileQuery*>> own;
    Cached<std::vector<const FileQuery*>> combined;
    Cached<std::vector<FileId>> wanted;
  };
  /// The slot of `node` in this contact, claiming a fresh one on first ask.
  Slot& slot(const Node& node);

  friend void exchangeHellos(std::span<Node* const>, const ProtocolConfig&,
                             const FileCatalog&, SimTime, ContactViews&);
  /// exchangeHellos scratch: per catalog file, the contact that last saw it
  /// advertised (`advertSeen`), its first advertiser and whether another
  /// member advertised it too; the files advertised this contact; one
  /// member's share of them.
  struct Advert {
    std::uint32_t first = 0;
    bool shared = false;
  };
  std::uint64_t helloSerial_ = 0;
  std::vector<std::uint64_t> advertSeen_;
  std::vector<Advert> adverts_;
  std::vector<FileId> advertised_;
  std::vector<FileId> memberShare_;

  /// A deque, so claiming a slot never moves the ones already handed out.
  std::deque<Slot> slots_;
  std::size_t used_ = 0;
  /// Node id -> its slot in this contact, when that slot's node matches.
  std::vector<std::uint32_t> slotOf_;
};

}  // namespace hdtn::core
