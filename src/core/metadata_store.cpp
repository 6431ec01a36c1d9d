#include "src/core/metadata_store.hpp"

#include <algorithm>

namespace hdtn::core {

std::unordered_map<FileId, MetadataStore::Record>::iterator
MetadataStore::evictionVictim() {
  auto victim = records_.end();
  for (auto it = records_.begin(); it != records_.end(); ++it) {
    if (victim == records_.end() ||
        it->second.md.popularity < victim->second.md.popularity ||
        (it->second.md.popularity == victim->second.md.popularity &&
         it->second.seq < victim->second.seq)) {
      victim = it;
    }
  }
  return victim;
}

bool MetadataStore::add(const Metadata& md) {
  auto it = records_.find(md.file);
  if (it != records_.end()) {
    if (md.popularity > it->second.md.popularity) {
      // Popularity refresh reorders byPopularity(): also a mutation.
      it->second.md.popularity = md.popularity;
      ++generation_;
    }
    return false;
  }
  if (capacity_ && records_.size() >= *capacity_) {
    auto victim = evictionVictim();
    if (victim != records_.end() &&
        md.popularity < victim->second.md.popularity) {
      // Admission control: the incoming record would be the next victim
      // itself, so shed it instead of churning the store.
      if (evictionHook_) evictionHook_(md);
      return false;
    }
    if (victim != records_.end()) {
      const Metadata evicted = victim->second.md;
      records_.erase(victim);
      if (evictionHook_) evictionHook_(evicted);
    }
  }
  records_.emplace(md.file, Record{md, nextSeq_++});
  earliestExpiry_ = std::min(earliestExpiry_, md.expiresAt());
  ++generation_;
  return true;
}

bool MetadataStore::has(FileId file) const { return records_.contains(file); }

const Metadata* MetadataStore::get(FileId file) const {
  auto it = records_.find(file);
  return it == records_.end() ? nullptr : &it->second.md;
}

std::size_t MetadataStore::expire(SimTime now) {
  if (now < earliestExpiry_) return 0;
  std::size_t dropped = 0;
  earliestExpiry_ = std::numeric_limits<SimTime>::max();
  for (auto it = records_.begin(); it != records_.end();) {
    if (it->second.md.expired(now)) {
      it = records_.erase(it);
      ++dropped;
    } else {
      earliestExpiry_ = std::min(earliestExpiry_, it->second.md.expiresAt());
      ++it;
    }
  }
  if (dropped > 0) ++generation_;
  return dropped;
}

void MetadataStore::remove(FileId file) {
  if (records_.erase(file) > 0) {
    ++generation_;
  }
}

std::span<const Metadata* const> MetadataStore::all() const {
  if (allView_.generation != generation_) {
    allView_.items.clear();
    allView_.items.reserve(records_.size());
    for (const auto& [_, rec] : records_) allView_.items.push_back(&rec.md);
    std::sort(allView_.items.begin(), allView_.items.end(),
              [](const Metadata* a, const Metadata* b) {
                return a->file < b->file;
              });
    allView_.generation = generation_;
  }
  return allView_.items;
}

std::span<const Metadata* const> MetadataStore::byPopularity() const {
  if (popularityView_.generation != generation_) {
    const auto sorted = all();
    popularityView_.items.assign(sorted.begin(), sorted.end());
    std::stable_sort(popularityView_.items.begin(),
                     popularityView_.items.end(),
                     [](const Metadata* a, const Metadata* b) {
                       if (a->popularity != b->popularity) {
                         return a->popularity > b->popularity;
                       }
                       return a->file < b->file;
                     });
    popularityView_.generation = generation_;
  }
  return popularityView_.items;
}

void MetadataStore::saveState(Serializer& out) const {
  const auto sorted = all();
  out.u64(sorted.size());
  for (const Metadata* md : sorted) {
    md->saveState(out);
    out.u64(records_.at(md->file).seq);
  }
  out.u64(nextSeq_);
}

void MetadataStore::loadState(Deserializer& in) {
  // Raw insertion: a restore must reproduce the saved store exactly, never
  // re-run capacity eviction or fire the hook.
  records_.clear();
  earliestExpiry_ = std::numeric_limits<SimTime>::max();
  ++generation_;
  const std::size_t count = in.length();
  for (std::size_t i = 0; i < count; ++i) {
    Record rec;
    rec.md.loadState(in);
    rec.seq = in.u64();
    earliestExpiry_ = std::min(earliestExpiry_, rec.md.expiresAt());
    records_.emplace(rec.md.file, std::move(rec));
  }
  nextSeq_ = in.u64();
}

}  // namespace hdtn::core
