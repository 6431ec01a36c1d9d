// Versioned, checksummed engine snapshots.
//
// A checkpoint captures the complete mutable state of an Engine at a step
// boundary — RNG stream positions, per-node stores/credits/queries, the
// Internet catalog and popularity table, delivery metrics, engine totals,
// fault-plan cursors, and the simulator position — such that restoring it
// into a freshly constructed engine (same trace, same params) and finishing
// produces byte-identical output (report, CSV, JSONL events, time series)
// to the uninterrupted run.
//
// The event queue itself holds closures and is not serialized. Instead the
// snapshot records how many events had executed; restore rebuilds the
// engine's deterministic schedule (publications, contacts, churn
// transitions — fixed at construction, never extended by handlers) and
// discards exactly that prefix without running it. See docs/CHECKPOINT.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/util/types.hpp"

namespace hdtn {
class Serializer;
}  // namespace hdtn

namespace hdtn::core {

/// Thrown when a checkpoint file cannot be read, fails its checksum, has an
/// unsupported version, or was written by a different run configuration.
/// Engine::restoreCheckpoint only mutates the engine after the checksum and
/// the configuration fingerprint both verify, so a throwing load never
/// leaves a partial restore behind.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bumped on any incompatible change to the snapshot layout. Saves write
/// this version; loading a file with a version outside
/// [kOldestCheckpointVersion, kCheckpointVersion] fails with
/// CheckpointError.
inline constexpr std::uint32_t kCheckpointVersion = 6;
/// The oldest version restore still reads: v5, whose component state wrote
/// every shared record and query in full and peer wants as URIs
/// (state_refs.hpp).
inline constexpr std::uint32_t kOldestCheckpointVersion = 5;

/// Header of a checkpoint file, readable without an engine.
struct CheckpointInfo {
  std::uint32_t version = 0;
  /// Simulation clock at save time (time of the last executed event).
  SimTime clock = 0;
  /// Events executed at save time; restore skips exactly this prefix.
  std::uint64_t executedEvents = 0;
  /// The opaque caller blob passed to Engine::saveCheckpoint (resume
  /// drivers store their own cursors here, e.g. output-file byte offsets).
  std::string extra;
};

/// Validates `path` (magic, version, payload checksum) and returns its
/// header and extra blob without touching any engine. Resume drivers call
/// this first to recover their own cursors, then construct the engine and
/// Engine::restoreCheckpoint. Throws CheckpointError on any problem.
[[nodiscard]] CheckpointInfo readCheckpointInfo(const std::string& path);

namespace detail {

/// The checkpoint envelope, shared by Engine and ShardedEngine checkpoints.
/// Each kind has its own magic ("HDTNCKPT", "HDTNSHRD") and error wording;
/// the header layout is the same (checkpoint.cpp).
enum class EnvelopeKind { kEngine, kSharded };

/// Writes one checkpoint file with a single atomic write: a zeroed header
/// and the payload `encodePayload` appends share one buffer, the payload
/// is hashed in place, and the size and digest are patched into the
/// header. `*sizeHint` is the writer's previous file size, used to reserve
/// the buffer; it is updated to this file's size. Throws CheckpointError
/// on I/O failure.
void writeCheckpointFile(
    const std::string& path, EnvelopeKind kind, std::size_t* sizeHint,
    const std::function<void(Serializer&)>& encodePayload);

/// A checkpoint file whose envelope verified.
struct CheckpointFile {
  std::string bytes;
  std::uint32_t version = 0;
  [[nodiscard]] std::string_view payload() const;
};

/// Reads `path` and verifies its magic, version (one this build reads),
/// payload size and payload checksum. Throws CheckpointError naming the
/// first problem.
[[nodiscard]] CheckpointFile readCheckpointFile(const std::string& path,
                                                EnvelopeKind kind);

}  // namespace detail
}  // namespace hdtn::core
