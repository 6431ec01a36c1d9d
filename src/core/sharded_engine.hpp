// Sharded parallel simulation engine.
//
// A contact trace decomposes into *contact-connected components*: maximal
// node sets linked by shared contacts. Nodes in different components never
// exchange a byte inside the DTN, so each component is an independent
// simulation — the only coupling is the Internet side, which ShardedEngine
// makes identical everywhere by sharing one publication stream (every
// component publishes the same daily catalog) and one publish horizon.
//
// ShardedEngine finds the components (union-find over the contacts, or the
// labels of a stream's partition hint), runs one Engine per component, and
// steps the components on a worker pool. The `shards` parameter only groups
// components into scheduling units; because components share no mutable
// state and every merge happens in canonical component order (ascending
// smallest global node id), the merged result is byte-identical at any
// --shards / --threads setting. The determinism reference is the sharded run itself: shards=N
// equals shards=1. (It intentionally differs from a monolithic Engine run of
// the same trace: role assignment and query draws happen per component.)
//
// Two driving modes:
//   * materialized — constructed from a ContactTrace; each component gets
//     its own remapped sub-trace and runs the normal schedule (churn,
//     frequent-contact relation, everything).
//   * streaming — constructed from a trace::ContactStream; contacts are
//     pulled in global start order up to each runUntil horizon and fed to
//     their component (Engine feed mode). run() and finish() pull the whole
//     remaining stream before any component steps; a component releases
//     its contacts once it has fed them, so they leave memory as node state
//     grows (runUntil slices bound them further). Feed mode
//     limitations (see Engine::beginFeed): empty frequent-contact relation
//     and empty churn intervals.
//
// Checkpoints: saveCheckpoint writes one envelope holding every component's
// state; restoreCheckpoint replays each component's schedule position —
// materialized components skip their executed prefix, streaming components
// re-pull the stream up to the saved epoch with replay feeds. A checkpoint
// saved at any shard/thread setting restores at any other.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/engine.hpp"
#include "src/trace/contact_trace.hpp"
#include "src/trace/streaming.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

struct ShardedParams {
  /// Base engine configuration. `engine.seed` is the run seed: component
  /// engines derive their streams from it (mixed with the component's
  /// smallest global node id), and the shared publication stream is derived
  /// from it too. The explicit access node list holds global ids; it is
  /// filtered and remapped per component.
  EngineParams engine;
  /// Scheduling groups. Purely a performance knob: results are identical at
  /// every value. Components are assigned round-robin.
  std::uint32_t shards = 1;
  /// Worker threads stepping the shard groups; 0 = defaultThreadCount().
  /// Purely a performance knob: results are identical at every value.
  unsigned threads = 1;

  /// One message per violation; empty when valid (engine params are
  /// validated by the component Engine constructors).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Runs a trace as independent per-component engines on a thread pool.
/// Results and checkpoints are byte-identical at every shards/threads
/// setting. Not reentrant; drive from one thread.
class ShardedEngine {
 public:
  /// Materialized mode: the components come from union-find over the
  /// trace's contacts. The trace must outlive the engine. Throws
  /// std::invalid_argument on invalid params.
  ShardedEngine(const trace::ContactTrace& trace, ShardedParams params);

  /// Streaming mode. The stream must outlive the engine and must yield
  /// contacts in ascending start order; it is reset before partition
  /// discovery and again before feeding (and on checkpoint restore). A
  /// non-empty partitionHint() is authoritative: nodes with equal labels
  /// form one component. A hint whose size is not the node count throws
  /// std::invalid_argument here; a contact that spans two labels throws
  /// std::invalid_argument when it is pulled (runUntil, run, finish).
  ShardedEngine(trace::ContactStream& stream, ShardedParams params);

  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Runs everything and returns the merged result (equivalent to
  /// finish()). Throws std::logic_error when already finished.
  EngineResult run();

  /// Advances every component to `horizon` (exclusive), feeding streamed
  /// contacts on the way. Horizons must not decrease across calls.
  void runUntil(SimTime horizon);

  /// Drains every component and returns the merged result exactly once.
  EngineResult finish();

  [[nodiscard]] bool finished() const { return finished_; }

  /// Merged snapshot of all component metrics at the current position.
  [[nodiscard]] EngineResult currentResult() const;

  /// The last runUntil horizon (the epoch boundary all components reached).
  [[nodiscard]] SimTime now() const { return epoch_; }

  /// Global horizon: trace/stream end time.
  [[nodiscard]] SimTime endTime() const { return globalEnd_; }

  [[nodiscard]] std::size_t nodeCount() const { return componentOf_.size(); }
  [[nodiscard]] std::size_t componentCount() const {
    return components_.size();
  }
  /// Scheduling groups actually formed: min(shards, componentCount).
  [[nodiscard]] std::size_t shardCount() const { return groups_.size(); }

  /// The component engine (canonical order: ascending smallest global id).
  [[nodiscard]] const Engine& component(std::size_t index) const {
    return *components_[index].engine;
  }
  /// Component index owning a global node id.
  [[nodiscard]] std::uint32_t componentOf(NodeId id) const {
    return componentOf_[id.value];
  }
  /// Global node ids of one component, ascending (local id = position).
  [[nodiscard]] const std::vector<NodeId>& componentNodes(
      std::size_t index) const {
    return components_[index].globalIds;
  }

  /// Writes one versioned, checksummed envelope holding every component's
  /// state (atomic temp-file + rename). Legal at any epoch boundary before
  /// finish(). Restorable at any shards/threads setting. Throws
  /// CheckpointError on I/O failure.
  void saveCheckpoint(const std::string& path,
                      std::string_view extra = {}) const;

  /// Restores into a freshly constructed ShardedEngine (same trace or
  /// stream, same engine params). Streaming mode resets the stream and
  /// replays the contact prefix before the saved epoch without executing
  /// it. Throws CheckpointError on corruption or configuration mismatch.
  void restoreCheckpoint(const std::string& path);

 private:
  struct Component {
    /// Ascending global ids; the local id of globalIds[i] is i.
    std::vector<NodeId> globalIds;
    /// Remapped sub-trace (materialized) or contact-less placeholder
    /// (streaming). Owned here: the Engine holds a reference into it.
    trace::ContactTrace trace;
    std::unique_ptr<Engine> engine;
    /// Contacts fed so far (streaming mode; checkpoint verification).
    std::uint64_t contactsFed = 0;
    /// Contacts pulled for the current epoch, awaiting the parallel feed;
    /// its storage is released once they are fed.
    std::vector<trace::Contact> feedBucket;
  };

  /// Groups nodes into components from hint labels or union-find roots,
  /// pooling isolated nodes (no contacts) into one component; fills
  /// componentOf_/localId_ and the components' globalIds in canonical
  /// order.
  void buildComponents(std::size_t nodeCount,
                       const std::vector<std::uint32_t>& labels);
  /// Constructs the per-component engines (seeds, publish stream, horizon;
  /// feed mode when streaming) over the already-filled component traces.
  void buildEngines();
  /// Remaps a global contact into its owning component's id space; returns
  /// the component index. Throws std::invalid_argument when the contact
  /// spans components (a lying stream hint).
  std::uint32_t remapContact(const trace::Contact& contact,
                             trace::Contact* local) const;
  /// Streaming: pulls every stream contact with start < horizon into the
  /// per-component feed buckets.
  void pullContacts(SimTime horizon);
  void throwIfFinished(const char* what) const;
  [[nodiscard]] unsigned threadCount() const;
  /// SHA-1 over the sharded configuration: mode, component layout, and
  /// every component engine's configuration fingerprint.
  [[nodiscard]] Sha1Digest shardedFingerprint() const;

  ShardedParams params_;
  /// Non-null in streaming mode.
  trace::ContactStream* stream_ = nullptr;
  SimTime globalEnd_ = 0;
  std::vector<std::uint32_t> componentOf_;  ///< global id -> component index
  std::vector<std::uint32_t> localId_;      ///< global id -> local id
  std::vector<Component> components_;
  /// Round-robin component indices per scheduling group.
  std::vector<std::vector<std::uint32_t>> groups_;
  /// Streaming lookahead: the first stream contact at/after the last pull
  /// horizon.
  std::optional<trace::Contact> pending_;
  SimTime epoch_ = 0;
  bool streaming_ = false;
  bool finished_ = false;
  /// Size of the last checkpoint file saved, to reserve the next one's
  /// buffer up front. Not part of the checkpointed state.
  mutable std::size_t checkpointSizeHint_ = 0;
};

}  // namespace hdtn::core
