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

struct FileQuery;  // src/core/query.hpp

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

/// How matches() (src/core/query.hpp) answered against one catalog's
/// records. Tests read them to see that the match rows do the work; no run
/// output and no checkpoint holds them.
struct MatchCounts {
  /// Answered from a query's match row.
  std::uint64_t rowHits = 0;
  /// Matched once and stored in the row.
  std::uint64_t rowFills = 0;
  /// Matched without a row: the record is not the catalog's own object
  /// of its file, or its file lies below the row's window.
  std::uint64_t direct = 0;
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

  /// This catalog object's identity: no other catalog object, a copy of
  /// this one included, has it. Query match rows are tagged with it.
  [[nodiscard]] std::uint64_t identity() const { return identity_.value; }

  [[nodiscard]] const FileInfo* find(FileId id) const;
  [[nodiscard]] const FileInfo* findByUri(const Uri& uri) const;

  /// Position of file `id`'s URI among all catalog URIs in ascending string
  /// order: sorting file ids by rank sorts their URIs without reading them.
  /// Kept current by publish. `id` must be a catalog file.
  [[nodiscard]] std::uint32_t uriRank(FileId id) const {
    return uriRanks_[id.value];
  }

  /// The signed metadata record for a published file. Valid until the next
  /// setPopularity of `id` (which publishes a new record object).
  [[nodiscard]] const Metadata& metadataFor(FileId id) const {
    return *sharedMetadataFor(id);
  }

  /// The record object itself, to hand to node stores: every holder the
  /// catalog reaches shares this one object instead of a copy.
  [[nodiscard]] const SharedMetadata& sharedMetadataFor(FileId id) const;

  /// True when `md` is the catalog's current record object of its file
  /// (not a copy, an older snapshot or a record naming another file).
  [[nodiscard]] bool holds(const Metadata& md) const {
    return md.file.value < metadata_.size() &&
           metadata_[md.file.value].get() == &md;
  }

  /// Updates a file's popularity (and its metadata snapshot). Used when the
  /// metadata server replaces the publisher-assigned estimate with the
  /// observed request rate (paper Section IV: popularity "can be maintained
  /// by a central metadata server"). Publishes a new record object: holders
  /// of the old one keep it, popularity included.
  void setPopularity(FileId id, Popularity popularity);

  /// Ids of all files alive at `now`, ascending. Scans from
  /// firstUnexpired(now) on.
  [[nodiscard]] std::vector<FileId> aliveFiles(SimTime now) const;

  /// The lowest file id not expired at `now` (size() when every file has):
  /// every lower file expired by `now`, whatever the publish times and
  /// TTLs.
  [[nodiscard]] std::uint32_t firstUnexpired(SimTime now) const;

  /// How matches() answered against this catalog's records.
  [[nodiscard]] const MatchCounts& matchCounts() const {
    return matchCounts_;
  }

  /// All file ids in publication order.
  [[nodiscard]] std::vector<FileId> allFiles() const;

 private:
  // matches() and the query rows count their answers in matchCounts_.
  friend bool matches(const FileQuery&, const Metadata&, const FileCatalog*);
  friend struct FileQuery;

  /// A value no other catalog object has had: a new one on construction,
  /// copy and assignment, from a process-wide counter (never an address,
  /// which a later object can reuse). Never zero.
  struct Identity {
    Identity() : value(next()) {}
    Identity(const Identity& /*other*/) : Identity() {}
    Identity& operator=(const Identity& /*other*/) {
      value = next();
      return *this;
    }
    static std::uint64_t next();
    std::uint64_t value;
  };

  PublisherRegistry* registry_;
  Identity identity_;
  std::vector<FileInfo> files_;
  /// Running maximum of the files' expiry times by file id:
  /// expiryPrefixMax_[i] = max over files 0..i of expiresAt().
  std::vector<SimTime> expiryPrefixMax_;
  std::vector<SharedMetadata> metadata_;
  std::unordered_map<Uri, FileId> byUri_;
  /// File ids in URI order, and each file's index in it (its uriRank).
  std::vector<FileId> uriOrder_;
  std::vector<std::uint32_t> uriRanks_;
  mutable MatchCounts matchCounts_;
};

}  // namespace hdtn::core
