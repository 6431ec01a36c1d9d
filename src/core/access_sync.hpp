// The access sync: what an Internet-access node does while it is online.
//
// Access nodes "can download the files they need" directly (paper Section
// VI-A), and they fetch what their peers advertised as wanted so they can
// carry it into the DTN (Section IV). The engine syncs an access node with
// the server at every publish instant and when the node joins a contact:
//
//   1. search the server for the node's own queries and, under MBT, the
//      stored queries of its frequent contacts; keep the top three matches
//      of each;
//   2. take the carry stock: the most popular alive records, to push into
//      the DTN (not under MBT-QM, where metadata never leaves a node);
//   3. download the files the node selected;
//   4. fetch the files peers advertised as wanted, in URI order.
//
// The alive file set and every popularity value change only at publish
// instants, so the sync keeps its work per publish epoch. A search text is
// searched once per epoch. Steps 2 and 4 visit a file once per epoch: a
// second visit stores nothing new, so it is skipped unless an event since
// the first can change its outcome. Those events are a new query at the
// node, the node shedding or rejecting the file's record (forget()), and
// the node's bounded piece store dropping one of the file's pieces
// (docs/PERFORMANCE.md, "MBT cooperative state by reference").
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/internet.hpp"
#include "src/core/node.hpp"
#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

class AccessSync {
 public:
  /// The engine side of a sync (tests substitute their own).
  class Host {
   public:
    /// Stores a server record at `node`, with the engine's verification
    /// and bounded-store accounting.
    virtual void storeMetadata(Node& node, const SharedMetadata& md,
                               SimTime now) = 0;
    /// `node` newly holds `file`'s record (the delivery metric).
    virtual void gotMetadata(const Node& node, FileId file, SimTime now) = 0;
    /// Downloads every piece of `file` to `node` when the file is alive.
    virtual void deliverWholeFile(Node& node, FileId file, SimTime now) = 0;

   protected:
    ~Host() = default;  // never deleted through this interface
  };

  struct Config {
    /// Step 1 also searches the stored queries of frequent contacts (MBT).
    bool searchProxiedQueries = false;
    /// Step 2 runs (the protocol distributes metadata).
    bool takeCarryStock = false;
    /// Step 4 runs.
    bool fetchPeerWants = false;
    /// Carry-stock size: this share of the alive files, at least 10 and at
    /// most stockLimit.
    double stockFraction = 0.25;
    std::size_t stockLimit = 500;
  };

  AccessSync(const InternetServices& internet, Config config)
      : internet_(internet), config_(config) {}

  /// Starts the publish epoch at `publishAt`: recomputes the carry stock
  /// from the catalog and forgets every visit of the previous epoch.
  void beginEpoch(SimTime publishAt);

  /// Syncs access node `node` at `now`; does nothing before the first
  /// publish. `views` is the engine's per-contact scratch.
  void sync(Node& node, SimTime now, ContactViews& views, Host& host);

  /// `node` lost `file`'s record since a visit (its bounded store shed it,
  /// or refused it) or rejected it: the next sync visits the file again.
  void forget(NodeId node, FileId file);

  /// Checkpoints the epoch and every node's search cache, in node-id order
  /// over `nodeCount` nodes (a node that never searched writes an empty
  /// cache). The carry stock and the visits are rebuilt, not saved: a
  /// restored run visits every file once more, which stores nothing new.
  void saveState(Serializer& out, std::size_t nodeCount) const;
  /// Throws SerializeError when the saved node count is not `nodeCount`.
  void loadState(Deserializer& in, std::size_t nodeCount);

 private:
  /// Visit bits, per file.
  static constexpr std::uint8_t kStocked = 1;  ///< step 2 stored its record
  static constexpr std::uint8_t kFetched = 2;  ///< step 4 fetched it

  /// One node's sync state. Only nodes that sync get one, and only access
  /// nodes sync.
  struct NodeState {
    /// Query text -> publish time at which it was last searched.
    std::unordered_map<std::string, SimTime> searched;
    /// The epoch and query count `visits` belong to; either moving on
    /// clears them.
    SimTime visitsEpoch = -1;
    std::size_t visitsQueryCount = 0;
    /// Visit bits per catalog file id, from visitBase_ on.
    std::vector<std::uint8_t> visits;
  };

  /// Sets `bit` of `file` in `state` and returns true, unless it was set.
  bool beginVisit(NodeState& state, FileId file, std::uint8_t bit);

  const InternetServices& internet_;
  Config config_;
  /// The last publish instant; -1 before the first.
  SimTime epoch_ = -1;
  /// The lowest file id alive at the epoch's start. Only alive files are
  /// visited, so a node's visits cover ids from here on: their size is
  /// the alive window, however long the catalog grows.
  std::uint32_t visitBase_ = 0;
  std::vector<SharedMetadata> carryStock_;
  std::unordered_map<std::uint32_t, NodeState> nodes_;
};

}  // namespace hdtn::core
