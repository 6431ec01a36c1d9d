// Walks the payload of a v6 engine checkpoint and records where each
// value reference, peer want, credit peer and metrics record id sits, so
// tests can hand-edit a file at a
// known place (docs/CHECKPOINT.md, "Value references"). The walk covers
// engines whose fault plan, recovery, adversary, reputation and coded
// state are all off.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/internet.hpp"
#include "src/core/metadata.hpp"
#include "src/core/piece_store.hpp"
#include "src/util/serialize.hpp"
#include "src/util/sha1.hpp"

namespace hdtn::core::testutil {

inline constexpr std::size_t kCheckpointDigestAt = 8 + 4 + 8;
inline constexpr std::size_t kCheckpointHeaderBytes = kCheckpointDigestAt + 20;

/// One reference: where its u32 index sits, and for one that starts a new
/// table entry, where the object written in full ends.
struct RefAt {
  std::size_t at = 0;
  bool inlineFollows = false;
  std::size_t end = 0;
};

/// Offsets inside the payload (after the 40-byte header).
struct PayloadLayout {
  std::vector<RefAt> records;  ///< store entries, in save order
  std::vector<RefAt> queries;  ///< own and stored proxied queries
  /// The file id offset of each peer want, per node.
  std::vector<std::vector<std::size_t>> wantAt;
  /// The peer id offset of each credit ledger entry, per node.
  std::vector<std::vector<std::size_t>> creditPeerAt;
  /// The id offset of each metrics record.
  std::vector<std::size_t> metricIdAt;
};

inline PayloadLayout walkV6Payload(std::string_view payload) {
  PayloadLayout layout;
  Deserializer in(payload);
  const auto at = [&] { return payload.size() - in.remaining(); };
  (void)in.u64();  // executed events
  (void)in.i64();  // clock
  (void)in.str();  // caller blob
  Sha1Digest fingerprint;
  in.raw(fingerprint.bytes.data(), fingerprint.bytes.size());
  for (int i = 0; i < 4; ++i) (void)in.u64();  // engine RNG
  if (in.boolean()) {
    for (int i = 0; i < 4; ++i) (void)in.u64();  // publish RNG
  }
  for (std::size_t i = 0; i < sizeof(EngineTotals) / sizeof(std::uint64_t);
       ++i) {
    (void)in.u64();
  }
  (void)in.u32();  // next forged id
  (void)in.i64();  // expiry scan watermark
  for (int section = 0; section < 5; ++section) {
    // faults, recovery, adversary, reputation, coded state
    EXPECT_FALSE(in.boolean());
  }
  InternetServices internet;
  internet.loadState(in);
  const std::uint64_t metricRecords = in.u64();
  for (std::uint64_t i = 0; i < metricRecords; ++i) {
    layout.metricIdAt.push_back(at());
    (void)in.u32();      // id
    (void)in.u32();      // owner
    (void)in.u32();      // target
    (void)in.i64();      // issue time
    (void)in.i64();      // TTL
    (void)in.boolean();  // owner is access
    (void)in.boolean();  // owner is a free rider
    (void)in.boolean();  // metadata delivered
    (void)in.i64();
    (void)in.boolean();  // file delivered
    (void)in.i64();
  }

  std::size_t recordTable = 0;
  std::size_t queryTable = 0;
  const auto record = [&] {
    RefAt ref{at(), in.u32() == recordTable, 0};
    if (ref.inlineFollows) {
      Metadata md;
      md.loadState(in);
      ++recordTable;
    }
    ref.end = at();
    layout.records.push_back(ref);
  };
  const auto query = [&] {
    RefAt ref{at(), in.u32() == queryTable, 0};
    if (ref.inlineFollows) {
      (void)in.str();  // text
      (void)in.u32();  // target
      (void)in.i64();  // issue time
      (void)in.i64();  // TTL
      ++queryTable;
    }
    ref.end = at();
    layout.queries.push_back(ref);
  };

  const std::uint64_t nodes = in.u64();
  for (std::uint64_t n = 0; n < nodes; ++n) {
    const std::uint64_t entries = in.u64();
    for (std::uint64_t i = 0; i < entries; ++i) {
      record();
      (void)in.u64();  // insertion sequence
    }
    (void)in.u64();  // next sequence
    PieceStore pieces;
    pieces.loadState(in);
    layout.creditPeerAt.emplace_back();
    const std::uint64_t credits = in.u64();
    for (std::uint64_t i = 0; i < credits; ++i) {
      layout.creditPeerAt.back().push_back(at());
      (void)in.u32();  // peer
      (void)in.f64();  // credit
    }
    const std::uint64_t own = in.u64();
    for (std::uint64_t i = 0; i < own; ++i) {
      (void)in.u32();  // query id
      (void)in.u32();  // owner
      query();
      (void)in.boolean();
      (void)in.u32();
      (void)in.boolean();
    }
    const std::uint64_t rejected = in.u64();
    for (std::uint64_t i = 0; i < rejected; ++i) (void)in.u32();
    const std::uint64_t offences = in.u64();
    for (std::uint64_t i = 0; i < offences; ++i) {
      (void)in.u32();
      (void)in.i64();
    }
    const std::uint64_t distrusted = in.u64();
    for (std::uint64_t i = 0; i < distrusted; ++i) (void)in.u32();
    const std::uint64_t peers = in.u64();
    for (std::uint64_t p = 0; p < peers; ++p) {
      (void)in.u32();  // peer
      const std::uint64_t stored = in.u64();
      for (std::uint64_t i = 0; i < stored; ++i) query();
      (void)in.i64();  // stored at
    }
    layout.wantAt.emplace_back();
    const std::uint64_t wants = in.u64();
    for (std::uint64_t i = 0; i < wants; ++i) {
      layout.wantAt.back().push_back(at());
      (void)in.u32();
      (void)in.i64();
    }
  }
  if (in.boolean()) {  // search caches
    (void)in.i64();
    const std::uint64_t caches = in.u64();
    for (std::uint64_t n = 0; n < caches; ++n) {
      const std::uint64_t entries = in.u64();
      for (std::uint64_t i = 0; i < entries; ++i) {
        (void)in.str();
        (void)in.i64();
      }
    }
  }
  EXPECT_TRUE(in.done());
  return layout;
}

inline void writeU32At(std::string& bytes, std::size_t offset,
                       std::uint32_t value) {
  Serializer out;
  out.u32(value);
  bytes.replace(offset, 4, out.bytes());
}

inline std::uint32_t readU32At(const std::string& bytes, std::size_t offset) {
  Deserializer in(std::string_view(bytes).substr(offset, 4));
  return in.u32();
}

/// Re-seals the payload digest of checkpoint file bytes.
inline void resealCheckpoint(std::string& bytes) {
  const Sha1Digest digest =
      Sha1::hash(std::string_view(bytes).substr(kCheckpointHeaderBytes));
  bytes.replace(kCheckpointDigestAt, digest.bytes.size(),
                reinterpret_cast<const char*>(digest.bytes.data()),
                digest.bytes.size());
}

}  // namespace hdtn::core::testutil
