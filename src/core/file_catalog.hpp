// The authoritative catalog of published files (the Internet side).
//
// Files are produced by well-known publishers (paper Section III-B), split
// into fixed-size pieces, and advertised by metadata records carrying SHA-1
// checksums of every piece. The catalog owns file identity (FileId <-> URI),
// deterministic piece payload generation (the "content"), and metadata
// construction including publisher authentication.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/metadata.hpp"
#include "src/util/random.hpp"
#include "src/util/sha1.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

/// BitTorrent-style default piece size (paper Section III-B). Simulations
/// usually configure a smaller piece size; the paper itself notes the size
/// is tunable to trade metadata size against piece count.
inline constexpr std::uint32_t kDefaultPieceSizeBytes = 256 * 1024;

struct FileInfo {
  FileId id;
  Uri uri;
  std::string name;
  std::string publisher;
  std::string description;
  std::uint64_t sizeBytes = 0;
  std::uint32_t pieceSizeBytes = kDefaultPieceSizeBytes;
  Popularity popularity = 0.0;
  SimTime publishedAt = 0;
  Duration ttl = 0;

  [[nodiscard]] std::uint32_t pieceCount() const;
  [[nodiscard]] std::uint32_t pieceLength(std::uint32_t pieceIndex) const;
  [[nodiscard]] SimTime expiresAt() const { return publishedAt + ttl; }
  [[nodiscard]] bool alive(SimTime now) const {
    return now >= publishedAt && now < expiresAt();
  }
};

/// Deterministic synthetic piece payload: the byte stream of a file is a
/// keyed PRNG expansion of its URI, so any two parties generate identical
/// bytes (and hence identical checksums) without storing content.
[[nodiscard]] std::vector<std::uint8_t> makePieceBytes(const FileInfo& info,
                                                       std::uint32_t piece);

class FileCatalog {
 public:
  struct PublishRequest {
    std::string name;
    std::string publisher;
    std::string description;
    std::uint64_t sizeBytes = 0;
    std::uint32_t pieceSizeBytes = kDefaultPieceSizeBytes;
    Popularity popularity = 0.0;
    SimTime publishedAt = 0;
    Duration ttl = 0;
  };

  explicit FileCatalog(PublisherRegistry* registry = nullptr)
      : registry_(registry) {}

  /// Publishes a file; assigns its FileId and URI, computes piece checksums
  /// over the deterministic payload, and signs the metadata when the
  /// publisher is registered. sizeBytes and pieceSizeBytes must be > 0.
  FileId publish(const PublishRequest& request);

  [[nodiscard]] std::size_t size() const { return files_.size(); }
  [[nodiscard]] const FileInfo* find(FileId id) const;
  [[nodiscard]] const FileInfo* findByUri(const Uri& uri) const;

  /// The signed metadata record for a published file. Valid until the next
  /// setPopularity of `id` (which publishes a new record object).
  [[nodiscard]] const Metadata& metadataFor(FileId id) const {
    return *sharedMetadataFor(id);
  }

  /// The record object itself, to hand to node stores: every holder the
  /// catalog reaches shares this one object instead of a copy.
  [[nodiscard]] const SharedMetadata& sharedMetadataFor(FileId id) const;

  /// Checksum of one piece, from the stored metadata.
  [[nodiscard]] const Sha1Digest& pieceDigest(FileId id,
                                              std::uint32_t piece) const;

  /// Verifies a received piece payload against the catalog checksum.
  [[nodiscard]] bool verifyPiece(FileId id, std::uint32_t piece,
                                 std::span<const std::uint8_t> data) const;

  /// Updates a file's popularity (and its metadata snapshot). Used when the
  /// metadata server replaces the publisher-assigned estimate with the
  /// observed request rate (paper Section IV: popularity "can be maintained
  /// by a central metadata server"). Publishes a new record object: holders
  /// of the old one keep it, popularity included.
  void setPopularity(FileId id, Popularity popularity);

  /// Ids of all files alive at `now`.
  [[nodiscard]] std::vector<FileId> aliveFiles(SimTime now) const;

  /// All file ids in publication order.
  [[nodiscard]] std::vector<FileId> allFiles() const;

 private:
  PublisherRegistry* registry_;
  std::vector<FileInfo> files_;
  std::vector<SharedMetadata> metadata_;
  std::unordered_map<Uri, FileId> byUri_;
};

}  // namespace hdtn::core
