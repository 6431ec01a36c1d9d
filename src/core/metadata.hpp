// Metadata records.
//
// Paper Section III-B: each file is associated with metadata containing (a)
// the file name, (b) the publisher, (c) a free-text description, (d) the
// URI, (e) SHA-1 checksums of its pieces, and (f) authentication information
// against fake publishers. Metadata is the unit of file *discovery*: it is
// distributed in the DTN earlier, in larger amounts, and for longer than the
// files themselves.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/serialize.hpp"
#include "src/util/sha1.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

/// FNV-1a over the token bytes — the hash behind Metadata::keywordHashes.
[[nodiscard]] std::uint64_t keywordHash(std::string_view token);

struct Metadata {
  FileId file;
  std::string name;
  std::string publisher;
  std::string description;
  Uri uri;
  std::uint64_t sizeBytes = 0;
  std::uint32_t pieceSizeBytes = 0;
  std::vector<Sha1Digest> pieceChecksums;
  /// Publisher authentication tag (see PublisherRegistry).
  Sha1Digest authTag{};
  /// Popularity snapshot at distribution time, in [0, 1].
  Popularity popularity = 0.0;
  SimTime publishedAt = 0;
  Duration ttl = 0;
  /// Sorted, deduplicated lowercase keywords of name/publisher/description.
  /// Derived data (not covered by authTag); rebuildKeywords() refreshes it
  /// and the catalog fills it at publish time so query matching is a binary
  /// search instead of re-tokenizing.
  std::vector<std::string> keywords;
  /// Sorted FNV-1a hashes of `keywords` (also derived; rebuilt together).
  /// Query matching probes these first — a u64 binary search — and only
  /// falls back to the string keywords to confirm a hash hit.
  std::vector<std::uint64_t> keywordHashes;

  /// Recomputes `keywords` (and their hashes) from the text fields.
  void rebuildKeywords();

  [[nodiscard]] std::uint32_t pieceCount() const {
    return static_cast<std::uint32_t>(pieceChecksums.size());
  }
  [[nodiscard]] SimTime expiresAt() const { return publishedAt + ttl; }
  [[nodiscard]] bool expired(SimTime now) const { return now >= expiresAt(); }

  /// Canonical byte string covered by the authentication tag.
  [[nodiscard]] std::string authPayload() const;

  /// Checkpoints the authoritative fields; keywords/keywordHashes are
  /// derived and rebuilt on load.
  void saveState(Serializer& out) const;
  void loadState(Deserializer& in);

  /// Every field equal (restore uses it to re-share identical records).
  bool operator==(const Metadata&) const = default;
};

/// One immutable record shared by the catalog and every store holding it.
/// A signed, named record never changes once published; the one field a
/// holder may change, its popularity snapshot, is changed on a private
/// copy (see MetadataStore::add).
using SharedMetadata = std::shared_ptr<const Metadata>;

/// Publisher authentication: a keyed-hash scheme standing in for the
/// publisher signatures the paper requires ("authentication information of
/// the metadata against fake publishers"). A publisher registers a secret
/// with the registry (the trusted Internet side); tagging computes
/// SHA1(secret || payload); verification recomputes it. A forged metadata
/// naming a known publisher fails verification; unknown publishers are
/// rejected outright.
class PublisherRegistry {
 public:
  /// Registers (or replaces) a publisher secret.
  void registerPublisher(const std::string& publisher,
                         const std::string& secret);

  [[nodiscard]] bool knows(const std::string& publisher) const;

  /// Computes the tag for metadata from its registered publisher. Returns
  /// std::nullopt when the publisher is unknown.
  [[nodiscard]] std::optional<Sha1Digest> sign(const Metadata& md) const;

  /// True iff md.authTag matches the registered publisher's tag.
  [[nodiscard]] bool verify(const Metadata& md) const;

 private:
  std::unordered_map<std::string, std::string> secrets_;
};

}  // namespace hdtn::core
