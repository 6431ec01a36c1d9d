#include "src/core/state_refs.hpp"

#include <string>
#include <utility>

namespace hdtn::core {
namespace {

/// Every field a query reference writes in full.
bool sameSavedQuery(const FileQuery& a, const FileQuery& b) {
  return a.target == b.target && a.issuedAt == b.issuedAt && a.ttl == b.ttl &&
         a.text == b.text;
}

}  // namespace

void StateRefWriter::record(Serializer& out, const Metadata& md) {
  const auto next = static_cast<std::uint32_t>(records_.size());
  const auto [it, inserted] = recordIndex_.try_emplace(RecordKey::of(md), next);
  if (!inserted) {
    const Metadata& known = *records_[it->second];
    if (&known == &md || known == md) {
      out.u32(it->second);
      return;
    }
  }
  out.u32(next);
  md.saveState(out);
  records_.push_back(&md);
}

void StateRefWriter::query(Serializer& out, const FileQuery& query) {
  const auto next = static_cast<std::uint32_t>(queries_.size());
  const auto [it, inserted] = queryIndex_.try_emplace(query.target, next);
  if (!inserted) {
    const FileQuery& known = *queries_[it->second];
    if (&known == &query || sameSavedQuery(known, query)) {
      out.u32(it->second);
      return;
    }
  }
  out.u32(next);
  out.str(query.text);
  out.u32(query.target.value);
  out.i64(query.issuedAt);
  out.i64(query.ttl);
  queries_.push_back(&query);
}

bool StateRefReader::readRef(Deserializer& in, std::size_t size,
                             const char* what, std::uint32_t* index) {
  *index = in.u32();
  if (*index < size) return false;
  if (*index == size) return true;
  throw SerializeError("corrupt payload: " + std::string(what) +
                       " reference " + std::to_string(*index) +
                       " is past the table of " + std::to_string(size));
}

SharedMetadata StateRefReader::record(Deserializer& in) {
  std::uint32_t index = 0;
  if (!v5_ && !readRef(in, records_.size(), "record", &index)) {
    return records_[index];
  }
  Metadata md;
  md.loadState(in);
  SharedMetadata shared = recordInterner_.intern(std::move(md));
  if (!v5_) records_.push_back(shared);
  return shared;
}

SharedQuery StateRefReader::inlineQuery(Deserializer& in) {
  std::string text = in.str();
  const FileId target{in.u32()};
  const SimTime issuedAt = in.i64();
  const Duration ttl = in.i64();
  return queryInterner_.intern(std::move(text), target, issuedAt, ttl);
}

SharedQuery StateRefReader::query(Deserializer& in) {
  if (v5_) return inlineQuery(in);
  std::uint32_t index = 0;
  if (!readRef(in, queries_.size(), "query", &index)) return queries_[index];
  queries_.push_back(inlineQuery(in));
  return queries_.back();
}

SharedQuery StateRefReader::storedQuery(Deserializer& in) {
  if (v5_) return queryInterner_.internText(in.str());
  return query(in);
}

}  // namespace hdtn::core
