// Checkpoint file format and Engine save/restore.
//
// File layout (all integers little-endian), the same for Engine ("HDTNCKPT")
// and ShardedEngine ("HDTNSHRD") checkpoints:
//   [0, 8)    magic
//   [8, 12)   u32 format version (kCheckpointVersion)
//   [12, 20)  u64 payload size in bytes
//   [20, 40)  SHA-1 digest of the payload
//   [40, ...) payload
//
// Engine payload layout (written with util/serialize):
//   u64 executed events, i64 clock, str caller extra blob,
//   20-byte configuration fingerprint, then the component state
//   (Engine::saveComponentState, engine.cpp). Saves write version 6; v5
//   files, whose component state writes shared records and queries in
//   full, still restore (state_refs.hpp).
#include "src/core/checkpoint.hpp"

#include <cstring>
#include <stdexcept>
#include <string_view>

#include "src/core/engine.hpp"
#include "src/util/serialize.hpp"
#include "src/util/sha1.hpp"

namespace hdtn::core {

namespace {

constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 20;

struct EnvelopeSpec {
  char magic[8];
  /// Names the file kind in error messages.
  const char* label;
  /// Prefixes write errors.
  const char* writer;
};

const EnvelopeSpec& envelopeSpec(detail::EnvelopeKind kind) {
  static constexpr EnvelopeSpec kEngine{
      {'H', 'D', 'T', 'N', 'C', 'K', 'P', 'T'}, "checkpoint",
      "saveCheckpoint"};
  static constexpr EnvelopeSpec kSharded{
      {'H', 'D', 'T', 'N', 'S', 'H', 'R', 'D'}, "sharded checkpoint",
      "ShardedEngine::saveCheckpoint"};
  return kind == detail::EnvelopeKind::kEngine ? kEngine : kSharded;
}

}  // namespace

namespace detail {

void writeCheckpointFile(
    const std::string& path, EnvelopeKind kind, std::size_t* sizeHint,
    const std::function<void(Serializer&)>& encodePayload) {
  const EnvelopeSpec& spec = envelopeSpec(kind);
  Serializer out;
  // Room for modest growth since the last save, so the payload rarely
  // reallocates.
  out.reserve(*sizeHint + *sizeHint / 8);
  const char zeroHeader[kHeaderSize] = {};
  out.raw(zeroHeader, kHeaderSize);
  encodePayload(out);
  std::string bytes = out.takeBytes();
  const std::string_view payload = std::string_view(bytes).substr(kHeaderSize);
  const Sha1Digest digest = Sha1::hash(payload);
  Serializer header;
  header.raw(spec.magic, sizeof(spec.magic));
  header.u32(kCheckpointVersion);
  header.u64(payload.size());
  header.raw(digest.bytes.data(), digest.bytes.size());
  std::memcpy(bytes.data(), header.bytes().data(), kHeaderSize);
  *sizeHint = bytes.size();

  std::string error;
  if (!writeFileAtomic(path, bytes, &error)) {
    throw CheckpointError(std::string(spec.writer) + ": " + error);
  }
}

std::string_view CheckpointFile::payload() const {
  return std::string_view(bytes).substr(kHeaderSize);
}

CheckpointFile readCheckpointFile(const std::string& path,
                                  EnvelopeKind kind) {
  const EnvelopeSpec& spec = envelopeSpec(kind);
  // Sharded envelopes have always reported truncation without the sizes.
  const bool engine = kind == EnvelopeKind::kEngine;
  CheckpointFile file;
  std::string error;
  if (!readFileBytes(path, &file.bytes, &error)) {
    throw CheckpointError("cannot read checkpoint: " + error);
  }
  const std::string_view bytes(file.bytes);
  if (bytes.size() < kHeaderSize) {
    throw CheckpointError(
        path + ": truncated " + spec.label +
        (engine ? " (" + std::to_string(bytes.size()) +
                      " bytes, shorter than the header)"
                : ""));
  }
  if (std::memcmp(bytes.data(), spec.magic, sizeof(spec.magic)) != 0) {
    throw CheckpointError(path + ": not a " + spec.label +
                          " file (bad magic)");
  }
  Deserializer header(
      bytes.substr(sizeof(spec.magic), kHeaderSize - sizeof(spec.magic)));
  file.version = header.u32();
  if (file.version < kOldestCheckpointVersion ||
      file.version > kCheckpointVersion) {
    throw CheckpointError(path + ": unsupported checkpoint version " +
                          std::to_string(file.version) +
                          " (this build reads versions " +
                          std::to_string(kOldestCheckpointVersion) + " and " +
                          std::to_string(kCheckpointVersion) + ")");
  }
  const std::uint64_t payloadSize = header.u64();
  Sha1Digest stored;
  header.raw(stored.bytes.data(), stored.bytes.size());
  if (bytes.size() - kHeaderSize != payloadSize) {
    throw CheckpointError(
        path + ": truncated " + spec.label +
        (engine ? " (payload is " + std::to_string(bytes.size() - kHeaderSize) +
                      " bytes, header promises " +
                      std::to_string(payloadSize) + ")"
                : " payload"));
  }
  if (!(Sha1::hash(file.payload()) == stored)) {
    throw CheckpointError(path +
                          ": checksum mismatch (corrupt checkpoint file)");
  }
  return file;
}

}  // namespace detail

namespace {

struct ParsedCheckpoint {
  CheckpointInfo info;
  Sha1Digest fingerprint;
  detail::CheckpointFile file;
  /// Offset of the component state inside the payload.
  std::size_t stateOffset = 0;
};

ParsedCheckpoint parseCheckpointFile(const std::string& path) {
  ParsedCheckpoint parsed;
  parsed.file = detail::readCheckpointFile(path, detail::EnvelopeKind::kEngine);
  const std::string_view payload = parsed.file.payload();
  parsed.info.version = parsed.file.version;
  try {
    Deserializer in(payload);
    parsed.info.executedEvents = in.u64();
    parsed.info.clock = in.i64();
    parsed.info.extra = in.str();
    in.raw(parsed.fingerprint.bytes.data(), parsed.fingerprint.bytes.size());
    parsed.stateOffset = payload.size() - in.remaining();
  } catch (const SerializeError& e) {
    throw CheckpointError(path + ": malformed checkpoint payload: " +
                          e.what());
  }
  return parsed;
}

}  // namespace

CheckpointInfo readCheckpointInfo(const std::string& path) {
  return parseCheckpointFile(path).info;
}

Sha1Digest Engine::configFingerprint() const {
  Serializer s;
  hashParams(s, params_);
  // Trace identity: the schedule replay is only valid against the exact
  // same contact sequence.
  s.str(trace_.name());
  s.u64(trace_.nodeCount());
  s.u64(trace_.contacts().size());
  for (const trace::Contact& contact : trace_.contacts()) {
    s.i64(contact.start);
    s.i64(contact.end);
    s.u64(contact.members.size());
    for (const NodeId member : contact.members) s.u32(member.value);
  }
  return Sha1::hash(s.bytes());
}

void Engine::saveCheckpoint(const std::string& path,
                            std::string_view extra) const {
  if (finished_) {
    throw std::logic_error(
        "Engine::saveCheckpoint: the run already finished; there is nothing "
        "left to resume");
  }
  detail::writeCheckpointFile(
      path, detail::EnvelopeKind::kEngine, &checkpointSizeHint_,
      [&](Serializer& payload) {
        payload.u64(sim_.executedEvents());
        payload.i64(sim_.now());
        payload.str(extra);
        const Sha1Digest fingerprint = configFingerprint();
        payload.raw(fingerprint.bytes.data(), fingerprint.bytes.size());
        saveComponentState(payload);
      });
}

void Engine::restoreCheckpoint(const std::string& path) {
  if (scheduled_ || finished_ || sim_.executedEvents() != 0) {
    throw std::logic_error(
        "Engine::restoreCheckpoint requires a freshly constructed engine "
        "(same trace and params, not yet stepped)");
  }
  if (observer_ != nullptr) {
    throw std::logic_error(
        "Engine::restoreCheckpoint: detach the observer before restoring "
        "(replayed state must not re-emit events); attach sinks afterwards");
  }
  const ParsedCheckpoint parsed = parseCheckpointFile(path);
  if (!(parsed.fingerprint == configFingerprint())) {
    throw CheckpointError(
        path +
        ": checkpoint was written by a different run configuration "
        "(params/trace fingerprint mismatch)");
  }
  try {
    Deserializer state(parsed.file.payload().substr(parsed.stateOffset));
    loadComponentState(state, parsed.file.version);
    if (!state.done()) {
      throw SerializeError("trailing bytes after the component state");
    }
  } catch (const SerializeError& e) {
    throw CheckpointError(path + ": malformed checkpoint payload: " +
                          e.what());
  }
  // Rebuild the deterministic schedule and discard the prefix the snapshot
  // already covers, without running it.
  ensureScheduled();
  for (std::uint64_t i = 0; i < parsed.info.executedEvents; ++i) {
    if (!sim_.skipOne()) {
      throw CheckpointError(
          path +
          ": checkpoint records more executed events than the schedule "
          "holds");
    }
  }
  if (sim_.now() != parsed.info.clock) {
    throw CheckpointError(
        path + ": replayed schedule position (t=" +
        std::to_string(sim_.now()) +
        ") does not match the checkpoint clock (t=" +
        std::to_string(parsed.info.clock) + ")");
  }
  // Every publish at or before the clock ran before the save (a publish
  // precedes the other events of its instant), so the run being resumed
  // had evented, or would have, every file expiry up to the last of them.
  expiryScanFloor_ = lastPublishAtOrBefore(sim_.now());
}

}  // namespace hdtn::core
