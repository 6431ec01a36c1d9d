// Cooperative and tit-for-tat metadata distribution (paper Section IV).
//
// During a contact, the clique members plan an ordered sequence of metadata
// *broadcasts* (one sender at a time, everyone else receives):
//
//   Cooperative (IV-A): phase 1 sends metadata matching the queries of
//   connected nodes — records matching more nodes' queries first, ties by
//   decreasing popularity; phase 2 sends the remaining metadata in
//   decreasing popularity.
//
//   Tit-for-tat (IV-B): senders take turns; each weighs a record by the sum
//   of the credits of the nodes requesting it, so serving contributors is
//   preferred. Free-riders (contributes == false) never transmit but still
//   overhear broadcasts — the paper notes they cannot be fully inhibited,
//   only starved of *targeted* service.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/credit.hpp"
#include "src/core/metadata_store.hpp"
#include "src/util/types.hpp"

namespace hdtn::obs {
class EngineObserver;  // src/obs/events.hpp
}

namespace hdtn::core {

struct FileQuery;  // src/core/query.hpp

/// Scheduling discipline for a contact.
enum class Scheduling {
  kCooperative,     ///< altruistic: coordinator orders by request count
  kTitForTat,       ///< selfish-robust: cyclic senders, credit-weighted picks
  kPopularityOnly,  ///< ablation: ignore requests, pure popularity push
};

/// One clique member's state as seen by the discovery planner.
struct DiscoveryPeer {
  NodeId id;
  /// The member's metadata store (source of records it can send).
  const MetadataStore* store = nullptr;
  /// Records this member refused (failed authentication); treated as held
  /// so they are never re-broadcast at it. Optional.
  const std::unordered_set<FileId>* rejected = nullptr;
  /// Senders this member ignores entirely (repeat forgery offenders). A
  /// member is not a lacker of a record when every holder is distrusted.
  const std::unordered_set<NodeId>* distrustedSenders = nullptr;
  /// Query strings this member wants served: its own plus, under MBT, the
  /// stored queries of its frequent contacts.
  std::vector<std::string> queries;
  /// Optional query objects standing for `queries`, each tokenized and
  /// hashed when it was built. When set, the planner matches against their
  /// tokens and token hashes and never reads `queries`: the engine points
  /// this at ContactViews::contactQueries, so a query is tokenized and
  /// hashed once per file, not once per contact.
  const std::vector<const FileQuery*>* queryObjects = nullptr;
  /// The member's credit ledger (used when it is the sender under TFT).
  const CreditLedger* credits = nullptr;
  /// Free-riders set this false: they receive but never send.
  bool contributes = true;
};

/// One planned metadata broadcast.
struct MetadataBroadcast {
  NodeId sender;
  const Metadata* metadata = nullptr;
  /// Members that lack the record and have a query matching it.
  std::vector<NodeId> requesters;
  /// 1 = requested phase, 2 = popularity push phase.
  int phase = 1;
};

/// Working arrays of planDiscovery, reused from contact to contact so that
/// candidate grouping allocates nothing once they have grown. The Engine
/// owns one and passes it with every call; the contents mean nothing
/// between calls.
struct DiscoveryScratch {
  /// One record in one member's store; a clique's records merge into
  /// (file, member) order.
  struct Held {
    FileId file;
    std::uint32_t member = 0;  ///< index into the peers span
    const Metadata* record = nullptr;
  };
  /// A record some contributing member holds and some member lacks.
  struct Candidate {
    const Metadata* metadata = nullptr;
    /// Requesters (lackers with a matching query, in member order):
    /// requesters[requesterBegin, +requesterCount).
    std::uint32_t requesterBegin = 0;
    std::uint32_t requesterCount = 0;
  };
  /// One tit-for-tat heap item: a sender's weight for one candidate.
  struct Ranked {
    double weight = 0.0;
    FileId file;  // denormalized so tie-breaking needs no pointer chase
    std::uint32_t candidate = 0;
  };

  std::vector<Held> held;
  std::vector<Held> mergeBuffer;
  std::vector<std::size_t> runs;
  std::vector<Candidate> candidates;
  /// Contributing-holder bitmask of candidate c: words
  /// [c * rowWords, (c + 1) * rowWords), bit i = peers[i].
  std::vector<std::uint64_t> holderRows;
  std::size_t rowWords = 0;
  std::vector<NodeId> requesters;
  /// One record's holder and contributor rows while grouping.
  std::vector<std::uint64_t> groupRows;
  /// Per member, its queries' token lists and their keywordHash lists.
  struct QueryTokens {
    const std::vector<std::string>* tokens = nullptr;
    const std::vector<std::uint64_t>* hashes = nullptr;
  };
  std::vector<QueryTokens> queryTokens;
  std::vector<std::size_t> queryBegin;  ///< member i: [begin[i], begin[i+1])
  std::vector<std::uint32_t> order;
  // Tit-for-tat: per-sender heaps over one flat array.
  std::vector<std::size_t> offset;
  std::vector<std::size_t> cursor;
  std::vector<Ranked> ranked;
  std::vector<std::uint64_t> sent;
};

/// Plans up to `budget` broadcasts for one contact. Each record is broadcast
/// at most once (after a broadcast every member holds it). Deterministic in
/// its inputs. When an observer is attached, emits one kDiscoveryPlanned
/// event per invocation timestamped at `now` (extra = planned broadcasts,
/// value = budget), exposing budget- vs supply-limited contacts. `scratch`,
/// when given, supplies the working arrays.
[[nodiscard]] std::vector<MetadataBroadcast> planDiscovery(
    std::span<const DiscoveryPeer> peers, int budget, Scheduling scheduling,
    obs::EngineObserver* observer = nullptr, SimTime now = 0,
    DiscoveryScratch* scratch = nullptr);

}  // namespace hdtn::core
