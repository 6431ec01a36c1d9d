// Per-node metadata storage.
//
// "The file discovery process collects metadata and stores them in the
// local storage of the node" (paper Section III-B). Metadata is keyed by
// FileId (equivalently its URI), expires with its file's TTL, and can be
// enumerated in popularity order for the push phases of discovery.
//
// Records are shared, not copied: a store keeps a SharedMetadata per file,
// so the catalog and every node holding a record point at one immutable
// object. Popularity is the only field a holder changes, and a refresh that
// raises it swaps in a private copy for this store alone (copy-on-write).
//
// The store keeps one flat entry per record (file id, insertion sequence,
// shared record), sorted by file id, so all() is a view over the entries
// themselves: nothing to rebuild, nothing to sort. byPopularity() is cached:
// the store keeps a generation counter bumped on every mutation and rebuilds
// that view lazily only when its cached generation falls behind. Returned
// views are invalidated by any non-const call, like iterators of a standard
// container; the records they point at are shared objects that stay valid
// at least that long, whatever other stores do.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/metadata.hpp"
#include "src/util/clone_ptr.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

/// On every engine path, records of one file differ only in their
/// popularity snapshot, so (file, popularity bits) names one record: a
/// lookup is one hash probe and one operator== check, however many
/// snapshots a file has. The interner below and the checkpoint's record
/// references (state_refs.hpp) key records by it.
struct RecordKey {
  FileId file;
  std::uint64_t popularityBits = 0;

  [[nodiscard]] static RecordKey of(const Metadata& md);
  bool operator==(const RecordKey&) const = default;
};

struct RecordKeyHash {
  std::size_t operator()(const RecordKey& key) const noexcept;
};

/// Re-shares records on checkpoint restore. MetadataStore::loadState hands
/// every record it reads in full to intern(), which returns an
/// already-known object equal in every field (Metadata::operator==) or
/// keeps the new one. Engine restore seeds it with the catalog's records,
/// so a resumed run holds no more record objects than the run it resumes.
class MetadataInterner {
 public:
  /// Makes `md` known, so later equal records reuse it.
  void seed(SharedMetadata md);

  /// A known object equal to `md`, else a new object holding it.
  [[nodiscard]] SharedMetadata intern(Metadata md);

 private:
  std::unordered_map<RecordKey, SharedMetadata, RecordKeyHash> known_;
};

class StateRefReader;  // src/core/state_refs.hpp
class StateRefWriter;

class MetadataStore {
 public:
  /// Unbounded store (the paper's model).
  MetadataStore() = default;

  /// Bounded store: at most `capacityRecords` records are retained. When
  /// full, add() sheds the least-popular record (ties broken by insertion
  /// order, oldest first — the same discipline PieceStore uses) or the
  /// incoming record itself when it would be the victim, so overload
  /// degrades gracefully instead of growing without bound.
  explicit MetadataStore(std::size_t capacityRecords)
      : capacity_(capacityRecords) {}

  [[nodiscard]] std::optional<std::size_t> capacity() const {
    return capacity_;
  }

  /// What add() did with the offered record.
  enum class Admission : std::uint8_t {
    kAdded,  ///< not held before, stored now
    kHeld,   ///< already held (and refreshed when more popular)
    kShed,   ///< a full store refused it: it would be the next victim
  };

  /// Inserts (or refreshes) a record. Inserting stores `md` itself, not a
  /// copy; refreshing a held record is one lookup and, when `md` carries a
  /// higher popularity, a private copy of the held record with that
  /// popularity. A record shed by capacity pressure (a stored victim, or
  /// the incoming record refused admission) is handed to `shed` when
  /// given; at most one record is shed per call, and TTL expiry sheds
  /// nothing.
  Admission add(const SharedMetadata& md, SharedMetadata* shed = nullptr);
  /// Stores a new object holding `md` (tests, whose records come from no
  /// other holder).
  Admission add(const Metadata& md, SharedMetadata* shed = nullptr) {
    return add(std::make_shared<const Metadata>(md), shed);
  }

  [[nodiscard]] bool has(FileId file) const;
  /// The held object itself, to forward to another holder; null when absent.
  [[nodiscard]] SharedMetadata shared(FileId file) const;

  /// Drops records whose TTL has elapsed at `now`. Returns number dropped.
  /// Returns without scanning while `now` is before the expiry watermark.
  /// After a drop that leaves the capacity above twice the size plus 8,
  /// the entries move to an exact-size vector.
  std::size_t expire(SimTime now);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// All records as `const Metadata*`, file-id ascending: a random-access
  /// view over the entries (size(), operator[], range-for). Valid until the
  /// next mutation.
  [[nodiscard]] auto all() const {
    return std::views::transform(entries_, &Entry::record);
  }

  /// All records, popularity descending (ties by file id ascending). Valid
  /// until the next mutation.
  [[nodiscard]] std::span<const Metadata* const> byPopularity() const;

  /// Checkpoints all records (file-id ascending for deterministic bytes),
  /// each as a reference into `refs`' record table.
  void saveState(Serializer& out, StateRefWriter& refs) const;
  /// Restores the saved records; each record equal to one already read
  /// reuses that object.
  void loadState(Deserializer& in, StateRefReader& refs);

 private:
  /// One stored record: 24 bytes. `seq` is the insertion order (the
  /// eviction tie-break); the record itself is shared.
  struct Entry {
    FileId file;
    std::uint32_t seq = 0;
    SharedMetadata md;

    [[nodiscard]] const Metadata* record() const { return md.get(); }
  };

  struct PopularityView {
    std::uint64_t generation = 0;  // valid when == store generation (> 0)
    std::vector<const Metadata*> items;
  };

  /// The entry holding `file`, or nullptr.
  [[nodiscard]] const Entry* find(FileId file) const;
  /// The stored record with the lowest (popularity, seq) — the next capacity
  /// victim. end() when empty. Total order: seqs are unique.
  [[nodiscard]] std::vector<Entry>::iterator evictionVictim();

  std::vector<Entry> entries_;  ///< file-id ascending
  /// Lower bound on every stored record's expiresAt(), so expire() at an
  /// earlier `now` cannot drop anything. add() lowers it, a scan and
  /// loadState recompute it exactly; max() when the store is empty. Not
  /// serialized.
  SimTime earliestExpiry_ = std::numeric_limits<SimTime>::max();
  std::uint64_t nextSeq_ = 1;
  std::optional<std::size_t> capacity_;
  // Generation 0 means "no view built yet"; every mutation bumps it, so a
  // view stamped with the current generation is exact.
  std::uint64_t generation_ = 1;
  /// Allocated on the first byPopularity() call: only the recovery and
  /// adversary paths enumerate by popularity.
  mutable ClonePtr<PopularityView> popularityView_;
};

}  // namespace hdtn::core
