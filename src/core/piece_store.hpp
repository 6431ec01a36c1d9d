// Per-node storage of downloaded file pieces.
//
// Pieces of a file "may be downloaded at different times and places" (paper
// Section III-B); the store tracks, per file, a bitmap of held pieces and
// reports completion. Storage is unbounded, as in the paper's simulation
// model; an optional capacity with popularity-aware eviction is provided for
// constrained deployments.
//
// Layout: one flat entry per registered file, kept sorted by file id, so a
// lookup is a binary search and files() is a view over the entries
// themselves. Bitmaps live in one per-store word arena instead of a heap
// allocation per file. Each registered file owns a span of 64-bit words;
// removeFile returns the span to a free list and registerFile reuses a
// freed span of the exact size, so a store that churns files (TTL expiry
// every contact) settles into a fixed arena with no steady-state
// allocation. At city scale this is the difference between one contiguous
// block per node and millions of scattered vector<bool> headers.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <ranges>
#include <utility>
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
  /// returns false if the file was registered with a different count. A
  /// zero count registers nothing and returns false.
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

  /// All registered files, ascending id: a random-access view over the
  /// entries (size(), operator[], range-for). Valid until the next
  /// registerFile, removeFile or loadState.
  [[nodiscard]] auto files() const {
    return std::views::transform(entries_, &Entry::file);
  }

  /// Calls fn(file, piece) for every held piece, in (file, piece) ascending
  /// order, reading each file's bitmap a word at a time.
  template <typename Fn>
  void forEachHeldPiece(Fn&& fn) const {
    for (const Entry& e : entries_) {
      const std::uint32_t words = wordsFor(e.pieces);
      for (std::uint32_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = arena_[e.word + w]; bits != 0;
             bits &= bits - 1) {
          fn(e.file,
             w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
        }
      }
    }
  }

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
  /// serialized. Ids are strictly ascending and every file has at least one
  /// piece.
  void saveState(Serializer& out) const;
  /// Restores saved state. Throws SerializeError on a record whose file ids
  /// are not strictly ascending or that lists a file with no pieces (or
  /// more than fit the 32-bit piece index).
  void loadState(Deserializer& in);

 private:
  struct Entry {
    FileId file;
    std::uint32_t word = 0;  ///< first arena word of this file's bitmap
    std::uint32_t pieces = 0;
    std::uint32_t held = 0;
    double priority = 0.0;
    /// Registration order; breaks eviction ties at equal priority
    /// (insertion-ascending).
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

  /// The first entry not below `file` (binary search).
  [[nodiscard]] std::vector<Entry>::const_iterator slot(FileId file) const;
  /// The entry of `file`, or nullptr.
  [[nodiscard]] const Entry* find(FileId file) const;
  [[nodiscard]] Entry* find(FileId file) {
    return const_cast<Entry*>(std::as_const(*this).find(file));
  }

  void evictOnePiece();

  std::vector<Entry> entries_;  ///< file-id ascending
  std::vector<std::uint64_t> arena_;
  /// Freed arena spans as (words, offset), in the order they were freed.
  /// A store frees a few spans of one or two sizes, so one vector beats a
  /// map of per-size lists.
  struct FreeBlock {
    std::uint32_t words = 0;
    std::uint32_t offset = 0;
  };
  std::vector<FreeBlock> freeBlocks_;
  std::size_t totalHeld_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::optional<std::size_t> capacity_;
};

}  // namespace hdtn::core
