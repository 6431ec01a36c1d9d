// Value references inside one checkpoint component state.
//
// The engine shares its metadata records and query objects: the catalog and
// every store holding a file's record point at one object, and every node
// asking for a file holds one query object. A checkpoint component state
// (Engine::saveComponentState) records that sharing. Each kind of object
// has a table that starts empty for the component. A reference is a u32
// index: the index of an object written before, or the table's size, in
// which case the object follows in full and joins the table. Objects match
// by value, never by address: records by (file, popularity) and queries by
// target, each match confirmed by comparing the saved fields. So the bytes
// depend only on the state, and a save made after a restore equals the
// save of the run it resumes (docs/CHECKPOINT.md, "Value references").
//
// Format v5 wrote every reference inline: a store entry's record and a
// node's own query in full, a stored proxied query as its text alone.
// StateRefReader still reads those files.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/checkpoint.hpp"
#include "src/core/metadata_store.hpp"
#include "src/core/query.hpp"

namespace hdtn::core {

/// Writes the references of one component state.
class StateRefWriter {
 public:
  /// Writes `md`'s reference, followed by the record in full when no equal
  /// record was written before.
  void record(Serializer& out, const Metadata& md);
  /// Writes `query`'s reference, followed by its text, target, issue time
  /// and TTL when no equal query was written before.
  void query(Serializer& out, const FileQuery& query);

 private:
  /// The first object written under each key. A later object equal to it
  /// writes its index; an unequal one (only hand-built states have those)
  /// is written in full and joins the table, but not the index.
  std::unordered_map<RecordKey, std::uint32_t, RecordKeyHash> recordIndex_;
  std::vector<const Metadata*> records_;
  std::unordered_map<FileId, std::uint32_t> queryIndex_;
  std::vector<const FileQuery*> queries_;
};

/// Reads the references of one component state saved in format `version`
/// (kOldestCheckpointVersion to kCheckpointVersion). Objects read in full
/// go through `records` and `queries`, which engine restore seeds with its
/// catalog's records and queries, so they share those objects again. A
/// reference past the table is a SerializeError.
class StateRefReader {
 public:
  StateRefReader(std::uint32_t version, MetadataInterner& records,
                 QueryInterner& queries)
      : v5_(version == kOldestCheckpointVersion),
        recordInterner_(records),
        queryInterner_(queries) {}

  /// True for a v5 state: every reference in full, and peer wants as URIs
  /// in URI order (Node::loadState).
  [[nodiscard]] bool v5() const { return v5_; }

  /// A store entry's record.
  [[nodiscard]] SharedMetadata record(Deserializer& in);
  /// A node's own query.
  [[nodiscard]] SharedQuery query(Deserializer& in);
  /// A stored proxied query: a query reference, or in v5 its text alone.
  [[nodiscard]] SharedQuery storedQuery(Deserializer& in);

 private:
  /// Reads a reference into a table of `size` objects: true when the
  /// object follows in full, false when `*index` names a known one.
  [[nodiscard]] static bool readRef(Deserializer& in, std::size_t size,
                                    const char* what, std::uint32_t* index);
  [[nodiscard]] SharedQuery inlineQuery(Deserializer& in);

  bool v5_;
  MetadataInterner& recordInterner_;
  QueryInterner& queryInterner_;
  std::vector<SharedMetadata> records_;
  std::vector<SharedQuery> queries_;
};

}  // namespace hdtn::core
