// Per-node storage of downloaded file pieces.
//
// Pieces of a file "may be downloaded at different times and places" (paper
// Section III-B); the store tracks, per file, a bitmap of held pieces and
// reports completion. Storage is unbounded, as in the paper's simulation
// model; an optional capacity with popularity-aware eviction is provided for
// constrained deployments.
//
// Layout: bitmaps live in one per-store word arena instead of a heap
// allocation per file. Each registered file owns a span of 64-bit words;
// removeFile returns the span to a size-keyed free list and registerFile
// reuses it, so a store that churns files (TTL expiry every contact)
// settles into a fixed arena with no steady-state allocation. At city scale
// this is the difference between one contiguous block per node and millions
// of scattered vector<bool> headers.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

class PieceStore {
 public:
  /// Unbounded store.
  PieceStore() = default;

  /// Bounded store: at most `capacityPieces` pieces are retained; when full,
  /// addPiece evicts a piece of the lowest-priority incomplete file.
  explicit PieceStore(std::size_t capacityPieces)
      : capacity_(capacityPieces) {}

  [[nodiscard]] std::optional<std::size_t> capacity() const {
    return capacity_;
  }

  /// Registers interest in a file (fixes its piece count). Idempotent;
  /// returns false if the file was registered with a different count.
  bool registerFile(FileId file, std::uint32_t pieceCount);

  /// Adds one piece. The file must be registered and `piece` in range.
  /// Returns true if the piece was newly added.
  bool addPiece(FileId file, std::uint32_t piece);

  /// Adds every piece of a registered file (e.g. a direct Internet
  /// download). Returns number of pieces newly added.
  std::uint32_t addWholeFile(FileId file);

  /// Drops a file and all its pieces.
  void removeFile(FileId file);

  [[nodiscard]] bool isRegistered(FileId file) const;
  [[nodiscard]] bool hasPiece(FileId file, std::uint32_t piece) const;
  [[nodiscard]] bool isComplete(FileId file) const;
  [[nodiscard]] std::uint32_t piecesHeld(FileId file) const;
  [[nodiscard]] std::uint32_t pieceCount(FileId file) const;

  /// Indices of pieces of `file` not yet held (empty if unregistered).
  [[nodiscard]] std::vector<std::uint32_t> missingPieces(FileId file) const;

  /// All registered files, ascending id. Cached: rebuilt only after a file
  /// was registered or removed; valid until the next such change.
  [[nodiscard]] const std::vector<FileId>& files() const;

  /// Registered files with every piece present, ascending id.
  [[nodiscard]] std::vector<FileId> completeFiles() const;

  [[nodiscard]] std::size_t totalPiecesHeld() const { return totalHeld_; }

  /// Words currently in the bitmap arena (allocated + free-listed); tests
  /// assert that churn reuses blocks instead of growing this.
  [[nodiscard]] std::size_t arenaWords() const { return arena_.size(); }

  /// Sets the priority used by bounded-store eviction (higher survives
  /// longer). Typically the file's popularity.
  void setPriority(FileId file, double priority);

  /// Checkpoints every registered file's bitmap, priority, and registration
  /// seq (file-id ascending) — seq included so a restored store picks the
  /// same eviction victims. The capacity bound is construction state, not
  /// serialized.
  void saveState(Serializer& out) const;
  void loadState(Deserializer& in);

 private:
  struct Entry {
    std::uint32_t word = 0;  ///< first arena word of this file's bitmap
    std::uint32_t pieces = 0;
    std::uint32_t held = 0;
    double priority = 0.0;
    /// Registration order; breaks eviction ties at equal priority
    /// (insertion-ascending) so victim choice never depends on hash-map
    /// iteration order.
    std::uint64_t seq = 0;
  };

  static std::uint32_t wordsFor(std::uint32_t pieces) {
    return (pieces + 63) / 64;
  }
  [[nodiscard]] bool bit(const Entry& e, std::uint32_t piece) const {
    return (arena_[e.word + piece / 64] >> (piece % 64)) & 1u;
  }
  void setBit(const Entry& e, std::uint32_t piece) {
    arena_[e.word + piece / 64] |= std::uint64_t{1} << (piece % 64);
  }
  void clearBit(const Entry& e, std::uint32_t piece) {
    arena_[e.word + piece / 64] &= ~(std::uint64_t{1} << (piece % 64));
  }
  /// Allocates a zeroed span of `words`, reusing a freed block when one of
  /// the exact size exists.
  std::uint32_t allocWords(std::uint32_t words);

  void evictOnePiece();

  std::unordered_map<FileId, Entry> entries_;
  std::vector<std::uint64_t> arena_;
  /// word-length -> reusable arena offsets (LIFO; deterministic reuse).
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> freeBlocks_;
  std::size_t totalHeld_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::optional<std::size_t> capacity_;
  /// files() view; stale after registerFile adds, removeFile and loadState.
  mutable std::vector<FileId> filesView_;
  mutable bool filesViewStale_ = false;
};

}  // namespace hdtn::core
