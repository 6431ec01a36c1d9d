// Keyword queries and metadata matching.
//
// A user searching for a file "inputs a query string and the file discovery
// process ... returns a sorted list of matched metadata ... in a
// preferential order" (paper Section III-B). A query matches a metadata
// record when every query keyword appears among the record's keywords (name,
// publisher, and description). Ranking is by popularity, the paper's proxy
// for "the right file" among similarly named ones.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/metadata.hpp"
#include "src/core/metadata_store.hpp"
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
/// however many consumers ask for it).
struct FileQuery {
  FileQuery(std::string text, FileId target, SimTime issuedAt, Duration ttl);
  /// A query known by its text alone (heard on the wire, or hand-built):
  /// no target, issue time or TTL.
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
};
using SharedQuery = std::shared_ptr<const FileQuery>;

/// Re-shares query objects on checkpoint restore, as MetadataInterner does
/// for records: every saved query equal to a known one (same target, text,
/// issue time and TTL) reuses that object, so a resumed run holds one query
/// object per file like the run it resumes. Stored proxied queries are
/// saved as texts alone; internText gives each the known object with that
/// text. Engine restore seeds every catalog file's query first, so a text
/// finds its object even when the node that owns the query loads later.
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

/// A match with its rank score.
struct RankedMatch {
  const Metadata* metadata = nullptr;
  double score = 0.0;
};

/// Filters `candidates` by queryMatches and sorts by (score desc, file id
/// asc). Score is the popularity plus a specificity bonus: records whose
/// keyword set is smaller (more precisely described by the query) score
/// slightly higher among equal popularity.
[[nodiscard]] std::vector<RankedMatch> rankMatches(
    const std::string& queryText,
    std::span<const Metadata* const> candidates);

/// Overload so call sites can pass a braced list of records.
[[nodiscard]] inline std::vector<RankedMatch> rankMatches(
    const std::string& queryText,
    std::initializer_list<const Metadata*> candidates) {
  return rankMatches(queryText,
                     std::span<const Metadata* const>(candidates.begin(),
                                                      candidates.size()));
}

/// Convenience: the best match in a store, or nullptr.
[[nodiscard]] const Metadata* bestMatch(const std::string& queryText,
                                        const MetadataStore& store);

}  // namespace hdtn::core
