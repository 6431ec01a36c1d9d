// Keyword queries and metadata matching.
//
// A user searching for a file "inputs a query string and the file discovery
// process ... returns a sorted list of matched metadata ... in a
// preferential order" (paper Section III-B). A query matches a metadata
// record when every query keyword appears among the record's keywords (name,
// publisher, and description). Ranking is by popularity, the paper's proxy
// for "the right file" among similarly named ones.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/file_catalog.hpp"
#include "src/core/metadata.hpp"
#include "src/util/types.hpp"

namespace hdtn::core {

/// An outstanding user query in the simulation. `target` is the file the
/// user actually wants (ground truth used for delivery accounting); the
/// protocol only ever sees `text`.
struct Query {
  QueryId id;
  NodeId owner;
  std::string text;
  FileId target;
  SimTime issuedAt = 0;
  Duration ttl = 0;

  [[nodiscard]] SimTime expiresAt() const { return issuedAt + ttl; }
  [[nodiscard]] bool expired(SimTime now) const { return now >= expiresAt(); }
};

/// What every user asking for one published file asks: the text, its
/// tokens, the target, the issue time and the TTL. An engine issues
/// `canonicalQueryText(info)` for every query of a file at its publish
/// instant, so it builds one immutable object per file and every node's
/// query state shares it (like a pending-interest entry that one name keeps
/// however many consumers ask for it). Objects are made shared
/// (SharedQuery), so a holder of a plain pointer can share one too.
struct FileQuery : std::enable_shared_from_this<FileQuery> {
  FileQuery(std::string text, FileId target, SimTime issuedAt, Duration ttl);
  /// A query known by its text alone (a restored stored peer query no
  /// catalog query shares, or hand-built): no target, issue time or TTL.
  explicit FileQuery(std::string text)
      : FileQuery(std::move(text), FileId{}, 0, 0) {}

  std::string text;
  /// `text` tokenized once (hot paths match against tokens; the text itself
  /// is only sent in hellos).
  std::vector<std::string> tokens;
  /// keywordHash of each token, parallel to `tokens`: the discovery planner
  /// probes the records' keyword-hash indexes with them.
  std::vector<std::uint64_t> tokenHashes;
  FileId target;
  SimTime issuedAt = 0;
  Duration ttl = 0;

  [[nodiscard]] SimTime expiresAt() const { return issuedAt + ttl; }
  [[nodiscard]] bool expired(SimTime now) const { return now >= expiresAt(); }

  /// Calls fn(FileId) for every file in [begin, end) whose record in
  /// `catalog` (metadataFor) this query matches, in ascending id order:
  /// what matches() answers for each of those records, in one pass over
  /// the match row. The walk grows the row to the catalog's size (so a
  /// query sees the files published since its last use), fills the
  /// window's unknown entries and reads the rest; a file below the row's
  /// start (FileCatalog::firstUnexpired(issuedAt)) is matched directly.
  /// It counts in `catalog.matchCounts()` as matches() does: a row hit per
  /// entry read, a row fill per entry filled, a direct match per file
  /// below the row. `end` is clipped to the catalog's size.
  template <typename Fn>
  void forEachMatch(const FileCatalog& catalog, std::uint32_t begin,
                    std::uint32_t end, Fn&& fn) const;

 private:
  friend bool matches(const FileQuery&, const Metadata&, const FileCatalog*);

  static constexpr std::size_t kEntriesPerWord = 32;
  static constexpr std::uint64_t kMatch = 1;
  static constexpr std::uint64_t kMiss = 2;
  /// The kMatch bit of every entry of a row word.
  static constexpr std::uint64_t kMatchBits = 0x5555555555555555;

  /// The row's entry for `md`: kMatch, kMiss, or 0 when the row holds none
  /// (it belongs to another catalog, `md` is not `catalog`'s record object
  /// or lies below the row, or was never matched).
  [[nodiscard]] std::uint64_t storedEntry(const Metadata& md,
                                          const FileCatalog& catalog) const;
  /// matches() when the row holds no entry for `md`: matches directly, and
  /// stores the answer when the row answers for `md`.
  [[nodiscard]] bool matchAndStore(const Metadata& md,
                                   const FileCatalog* catalog) const;
  /// Makes the row `catalog`'s (starting it afresh for another catalog)
  /// and grows it to cover every file published so far. Returns its start.
  std::uint32_t coverRow(const FileCatalog& catalog) const;
  /// Fills the unknown entries `unknown` (their kMatch bits) of row word
  /// `word` from `catalog`'s records; returns the word.
  std::uint64_t fillWord(const FileCatalog& catalog, std::size_t word,
                         std::uint64_t unknown) const;

  /// matches()'s memo over one catalog's record objects: a 2-bit entry
  /// (0 unknown, kMatch, kMiss) per file id from rowBase_ on, filled on
  /// first use by matches() or a walk. rowCatalog_ is the catalog's
  /// identity (0 before the first use); another catalog starts the row
  /// afresh. A const query fills it, so a query object must stay with one
  /// thread: each engine builds its own.
  mutable std::uint64_t rowCatalog_ = 0;
  mutable std::uint32_t rowBase_ = 0;
  mutable std::vector<std::uint64_t> row_;
};
using SharedQuery = std::shared_ptr<const FileQuery>;

/// Re-shares query objects on checkpoint restore, as MetadataInterner does
/// for records: every saved query equal to a known one (same target, text,
/// issue time and TTL) reuses that object, so a resumed run holds one query
/// object per file like the run it resumes. Format v5 saved stored proxied
/// queries as texts alone; internText gives each the known object with
/// that text. Engine restore seeds every catalog file's query first, so a
/// text finds its object even when the node that owns the query loads
/// later.
class QueryInterner {
 public:
  /// Makes `query` known under its target and its text.
  void seed(SharedQuery query);

  [[nodiscard]] SharedQuery intern(std::string text, FileId target,
                                   SimTime issuedAt, Duration ttl);

  /// A known object with `text`, else a new one with no target that later
  /// texts equal to it reuse.
  [[nodiscard]] SharedQuery internText(std::string text);

 private:
  /// Engine queries of one file are all equal, so the target names one
  /// object; a query unlike the known one (only a hand-made checkpoint has
  /// those) keeps its own object.
  std::unordered_map<FileId, SharedQuery> known_;
  /// The first known object of each text.
  std::unordered_map<std::string, SharedQuery> byText_;
};

/// True when every keyword of `queryText` occurs in the metadata keywords.
/// Empty queries match nothing.
[[nodiscard]] bool queryMatches(const std::string& queryText,
                                const Metadata& md);

/// Same, over pre-tokenized query keywords (hot paths tokenize once).
[[nodiscard]] bool queryTokensMatch(const std::vector<std::string>& queryTokens,
                                    const Metadata& md);

/// Same again, with the tokens' keywordHash values precomputed by the caller
/// (parallel to `queryTokens`). When the record carries its keywordHashes
/// index the containment test is a u64 binary search per token, confirming
/// against the string keywords only on a hash hit; otherwise this behaves
/// exactly like queryTokensMatch.
[[nodiscard]] bool queryTokensMatchPrehashed(
    const std::vector<std::string>& queryTokens,
    const std::vector<std::uint64_t>& queryTokenHashes, const Metadata& md);

/// Whether `query` matches `md`: queryTokensMatchPrehashed over the
/// query's tokens. When `md` is `catalog`'s own record object of its file
/// (FileCatalog::holds) and its file id is at least the lowest one
/// unexpired at the query's issue time (FileCatalog::firstUnexpired), the
/// answer comes from the query's match row, where the first such match
/// stored it. The keywords of a catalog's records of one file never change
/// (setPopularity copies them), so an entry stays true. Every other record,
/// and every record when `catalog` is null, is matched directly. The
/// query's tokens must not change once it is matched. Callers that ask
/// about many catalog files at once (the discovery planner and the server
/// search) walk the same row instead (FileQuery::forEachMatch) and call
/// this only for the records a row does not answer for.
[[nodiscard]] inline bool matches(const FileQuery& query, const Metadata& md,
                                  const FileCatalog* catalog) {
  if (catalog != nullptr) {
    if (const std::uint64_t entry = query.storedEntry(md, *catalog)) {
      ++catalog->matchCounts_.rowHits;
      return entry == FileQuery::kMatch;
    }
  }
  return query.matchAndStore(md, catalog);
}

inline std::uint64_t FileQuery::storedEntry(const Metadata& md,
                                            const FileCatalog& catalog) const {
  if (rowCatalog_ != catalog.identity() || !catalog.holds(md) ||
      md.file.value < rowBase_) {
    return 0;
  }
  const std::size_t slot = md.file.value - rowBase_;
  if (slot / kEntriesPerWord >= row_.size()) return 0;
  return (row_[slot / kEntriesPerWord] >> (2 * (slot % kEntriesPerWord))) & 3;
}

template <typename Fn>
void FileQuery::forEachMatch(const FileCatalog& catalog, std::uint32_t begin,
                             std::uint32_t end, Fn&& fn) const {
  end = std::min(end, static_cast<std::uint32_t>(catalog.size()));
  if (begin >= end) return;
  const std::uint32_t base = coverRow(catalog);
  for (; begin < std::min(end, base); ++begin) {
    if (matchAndStore(catalog.metadataFor(FileId(begin)), &catalog)) {
      fn(FileId(begin));
    }
  }
  if (begin >= end) return;
  MatchCounts& counts = catalog.matchCounts_;
  for (std::size_t slot = begin - base; slot < end - base;) {
    const std::size_t w = slot / kEntriesPerWord;
    const std::size_t stop = std::min<std::size_t>(
        end - base - w * kEntriesPerWord, kEntriesPerWord);
    // The kMatch bits of the window's entries in this word.
    std::uint64_t window = kMatchBits << (2 * (slot % kEntriesPerWord));
    if (stop < kEntriesPerWord) window &= (std::uint64_t{1} << (2 * stop)) - 1;
    std::uint64_t word = row_[w];
    const std::uint64_t unknown = ~(word | word >> 1) & window;
    if (unknown != 0) word = fillWord(catalog, w, unknown);
    counts.rowHits += static_cast<std::uint64_t>(std::popcount(window) -
                                                 std::popcount(unknown));
    for (std::uint64_t hit = word & window; hit != 0; hit &= hit - 1) {
      const auto entry = static_cast<std::size_t>(std::countr_zero(hit)) / 2;
      fn(FileId(base +
                static_cast<std::uint32_t>(w * kEntriesPerWord + entry)));
    }
    slot = (w + 1) * kEntriesPerWord;
  }
}

/// A match with its rank score.
struct RankedMatch {
  const Metadata* metadata = nullptr;
  double score = 0.0;
};

/// Filters `candidates` by matches(query, *candidate, catalog) and sorts
/// by (score desc, file id asc). Score is the popularity plus a specificity
/// bonus: records whose keyword set is smaller (more precisely described by
/// the query) score slightly higher among equal popularity. Null
/// candidates are skipped.
[[nodiscard]] std::vector<RankedMatch> rankMatches(
    const FileQuery& query, std::span<const Metadata* const> candidates,
    const FileCatalog* catalog = nullptr);

}  // namespace hdtn::core
