#include "src/core/metadata_store.hpp"

#include <algorithm>
#include <bit>

namespace hdtn::core {

std::size_t MetadataInterner::KeyHash::operator()(
    const Key& key) const noexcept {
  return std::hash<std::uint64_t>{}(
      key.popularityBits ^
      (std::uint64_t{key.file.value} * 0x9E3779B97F4A7C15ULL));
}

MetadataInterner::Key MetadataInterner::keyOf(const Metadata& md) {
  return Key{md.file, std::bit_cast<std::uint64_t>(md.popularity)};
}

void MetadataInterner::seed(SharedMetadata md) {
  const Key key = keyOf(*md);
  known_.try_emplace(key, std::move(md));
}

SharedMetadata MetadataInterner::intern(Metadata md) {
  auto [it, inserted] = known_.try_emplace(keyOf(md));
  if (!inserted && *it->second == md) return it->second;
  // A record unlike the known one under its key (only a hand-made
  // checkpoint has those) keeps its own object and is not remembered.
  auto fresh = std::make_shared<const Metadata>(std::move(md));
  if (inserted) it->second = fresh;
  return fresh;
}

std::unordered_map<FileId, MetadataStore::Record>::iterator
MetadataStore::evictionVictim() {
  auto victim = records_.end();
  for (auto it = records_.begin(); it != records_.end(); ++it) {
    if (victim == records_.end() ||
        it->second.md->popularity < victim->second.md->popularity ||
        (it->second.md->popularity == victim->second.md->popularity &&
         it->second.seq < victim->second.seq)) {
      victim = it;
    }
  }
  return victim;
}

bool MetadataStore::add(const SharedMetadata& md) {
  auto it = records_.find(md->file);
  if (it != records_.end()) {
    if (md->popularity > it->second.md->popularity) {
      // Copy-on-write: other holders of the shared record keep their own
      // popularity. The refresh reorders byPopularity(): also a mutation.
      auto own = std::make_shared<Metadata>(*it->second.md);
      own->popularity = md->popularity;
      it->second.md = std::move(own);
      ++generation_;
    }
    return false;
  }
  if (capacity_ && records_.size() >= *capacity_) {
    auto victim = evictionVictim();
    if (victim != records_.end() &&
        md->popularity < victim->second.md->popularity) {
      // Admission control: the incoming record would be the next victim
      // itself, so shed it instead of churning the store.
      if (evictionHook_) evictionHook_(*md);
      return false;
    }
    if (victim != records_.end()) {
      const SharedMetadata evicted = std::move(victim->second.md);
      records_.erase(victim);
      if (evictionHook_) evictionHook_(*evicted);
    }
  }
  records_.emplace(md->file, Record{md, nextSeq_++});
  earliestExpiry_ = std::min(earliestExpiry_, md->expiresAt());
  ++generation_;
  return true;
}

bool MetadataStore::has(FileId file) const { return records_.contains(file); }

const Metadata* MetadataStore::get(FileId file) const {
  auto it = records_.find(file);
  return it == records_.end() ? nullptr : it->second.md.get();
}

SharedMetadata MetadataStore::shared(FileId file) const {
  auto it = records_.find(file);
  return it == records_.end() ? nullptr : it->second.md;
}

std::size_t MetadataStore::expire(SimTime now) {
  if (now < earliestExpiry_) return 0;
  std::size_t dropped = 0;
  earliestExpiry_ = std::numeric_limits<SimTime>::max();
  for (auto it = records_.begin(); it != records_.end();) {
    if (it->second.md->expired(now)) {
      it = records_.erase(it);
      ++dropped;
    } else {
      earliestExpiry_ = std::min(earliestExpiry_, it->second.md->expiresAt());
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
    for (const auto& [_, rec] : records_) {
      allView_.items.push_back(rec.md.get());
    }
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

void MetadataStore::loadState(Deserializer& in, MetadataInterner& interner) {
  // Raw insertion: a restore must reproduce the saved store exactly, never
  // re-run capacity eviction or fire the hook.
  records_.clear();
  earliestExpiry_ = std::numeric_limits<SimTime>::max();
  ++generation_;
  const std::size_t count = in.length();
  for (std::size_t i = 0; i < count; ++i) {
    Metadata md;
    md.loadState(in);
    Record rec{interner.intern(std::move(md)), in.u64()};
    earliestExpiry_ = std::min(earliestExpiry_, rec.md->expiresAt());
    records_.emplace(rec.md->file, std::move(rec));
  }
  nextSeq_ = in.u64();
}

}  // namespace hdtn::core
