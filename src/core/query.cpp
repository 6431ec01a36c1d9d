#include "src/core/query.hpp"

#include <algorithm>

#include "src/util/string_util.hpp"

namespace hdtn::core {
namespace {

// Tokenizes just the searchable text fields of a record into a sorted,
// deduplicated local vector — the shape rebuildKeywords() produces — without
// copying the whole Metadata (piece checksums, auth tag) the way a
// `Metadata scratch = md` fallback would.
std::vector<std::string> tokenizeTextFields(const Metadata& md) {
  std::vector<std::string> keywords;
  for (const std::string* source : {&md.name, &md.publisher, &md.description}) {
    for (auto& token : keywordTokens(*source)) {
      keywords.push_back(std::move(token));
    }
  }
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  return keywords;
}

// Uses the precomputed sorted keyword list when present; otherwise tokenizes
// the text fields on the fly (hand-constructed Metadata in tests).
bool containsAllTokens(const std::vector<std::string>& queryTokens,
                       const Metadata& md) {
  if (queryTokens.empty()) return false;
  const auto matchAgainst = [&queryTokens](
                                const std::vector<std::string>& keywords) {
    return std::all_of(queryTokens.begin(), queryTokens.end(),
                       [&keywords](const std::string& kw) {
                         return std::binary_search(keywords.begin(),
                                                   keywords.end(), kw);
                       });
  };
  if (!md.keywords.empty()) return matchAgainst(md.keywords);
  return matchAgainst(tokenizeTextFields(md));
}

std::size_t keywordCountOf(const Metadata& md) {
  if (!md.keywords.empty()) return md.keywords.size();
  return tokenizeTextFields(md).size();
}

}  // namespace

FileQuery::FileQuery(std::string text, FileId target, SimTime issuedAt,
                     Duration ttl)
    : text(std::move(text)),
      tokens(keywordTokens(this->text)),
      target(target),
      issuedAt(issuedAt),
      ttl(ttl) {
  tokenHashes.reserve(tokens.size());
  for (const std::string& token : tokens) {
    tokenHashes.push_back(keywordHash(token));
  }
}

void QueryInterner::seed(SharedQuery query) {
  byText_.try_emplace(query->text, query);
  known_.try_emplace(query->target, std::move(query));
}

SharedQuery QueryInterner::intern(std::string text, FileId target,
                                  SimTime issuedAt, Duration ttl) {
  auto [it, inserted] = known_.try_emplace(target);
  if (!inserted && it->second->text == text &&
      it->second->issuedAt == issuedAt && it->second->ttl == ttl) {
    return it->second;
  }
  auto fresh = std::make_shared<const FileQuery>(std::move(text), target,
                                                 issuedAt, ttl);
  if (inserted) it->second = fresh;
  byText_.try_emplace(fresh->text, fresh);
  return fresh;
}

SharedQuery QueryInterner::internText(std::string text) {
  const auto it = byText_.find(text);
  if (it != byText_.end()) return it->second;
  auto fresh = std::make_shared<const FileQuery>(std::move(text));
  byText_.emplace(fresh->text, fresh);
  return fresh;
}

bool queryMatches(const std::string& queryText, const Metadata& md) {
  return containsAllTokens(keywordTokens(queryText), md);
}

bool queryTokensMatch(const std::vector<std::string>& queryTokens,
                      const Metadata& md) {
  return containsAllTokens(queryTokens, md);
}

bool queryTokensMatchPrehashed(const std::vector<std::string>& queryTokens,
                               const std::vector<std::uint64_t>& queryTokenHashes,
                               const Metadata& md) {
  // The hash index only speaks for the record when it covers every keyword
  // (hand-built Metadata may carry keywords without rebuilt hashes).
  if (md.keywords.empty() || md.keywordHashes.size() != md.keywords.size() ||
      queryTokenHashes.size() != queryTokens.size()) {
    return containsAllTokens(queryTokens, md);
  }
  if (queryTokens.empty()) return false;
  for (std::size_t k = 0; k < queryTokens.size(); ++k) {
    if (!std::binary_search(md.keywordHashes.begin(), md.keywordHashes.end(),
                            queryTokenHashes[k])) {
      return false;
    }
    // Hash hit: confirm on the strings so a collision can never flip a
    // non-match into a match.
    if (!std::binary_search(md.keywords.begin(), md.keywords.end(),
                            queryTokens[k])) {
      return false;
    }
  }
  return true;
}

std::vector<RankedMatch> rankMatches(
    const std::string& queryText,
    std::span<const Metadata* const> candidates) {
  std::vector<RankedMatch> out;
  const auto queryTokens = keywordTokens(queryText);
  for (const Metadata* md : candidates) {
    if (md == nullptr || !containsAllTokens(queryTokens, *md)) continue;
    const double keywordCount = static_cast<double>(keywordCountOf(*md));
    // Popularity dominates; the specificity bonus only breaks near-ties in
    // favour of records the query describes more completely.
    const double score = md->popularity + 0.001 / (1.0 + keywordCount);
    out.push_back(RankedMatch{md, score});
  }
  std::sort(out.begin(), out.end(), [](const RankedMatch& a,
                                       const RankedMatch& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.metadata->file < b.metadata->file;
  });
  return out;
}

const Metadata* bestMatch(const std::string& queryText,
                          const MetadataStore& store) {
  const auto all = store.all();
  const std::vector<const Metadata*> records(all.begin(), all.end());
  const auto ranked = rankMatches(queryText, records);
  return ranked.empty() ? nullptr : ranked.front().metadata;
}

}  // namespace hdtn::core
