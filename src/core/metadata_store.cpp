#include "src/core/metadata_store.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/core/state_refs.hpp"

namespace hdtn::core {

std::size_t RecordKeyHash::operator()(const RecordKey& key) const noexcept {
  return std::hash<std::uint64_t>{}(
      key.popularityBits ^
      (std::uint64_t{key.file.value} * 0x9E3779B97F4A7C15ULL));
}

RecordKey RecordKey::of(const Metadata& md) {
  return RecordKey{md.file, std::bit_cast<std::uint64_t>(md.popularity)};
}

void MetadataInterner::seed(SharedMetadata md) {
  const RecordKey key = RecordKey::of(*md);
  known_.try_emplace(key, std::move(md));
}

SharedMetadata MetadataInterner::intern(Metadata md) {
  auto [it, inserted] = known_.try_emplace(RecordKey::of(md));
  if (!inserted && *it->second == md) return it->second;
  // A record unlike the known one under its key (only a hand-made
  // checkpoint has those) keeps its own object and is not remembered.
  auto fresh = std::make_shared<const Metadata>(std::move(md));
  if (inserted) it->second = fresh;
  return fresh;
}

namespace {

// The first of the file-sorted `entries` whose file is not below `file`.
template <typename Entries>
auto lowerBound(Entries& entries, FileId file) {
  return std::lower_bound(
      entries.begin(), entries.end(), file,
      [](const auto& entry, FileId key) { return entry.file < key; });
}

}  // namespace

const MetadataStore::Entry* MetadataStore::find(FileId file) const {
  const auto it = lowerBound(entries_, file);
  return it != entries_.end() && it->file == file ? &*it : nullptr;
}

std::vector<MetadataStore::Entry>::iterator MetadataStore::evictionVictim() {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (victim == entries_.end() ||
        it->md->popularity < victim->md->popularity ||
        (it->md->popularity == victim->md->popularity &&
         it->seq < victim->seq)) {
      victim = it;
    }
  }
  return victim;
}

MetadataStore::Admission MetadataStore::add(const SharedMetadata& md,
                                            SharedMetadata* shed) {
  auto it = lowerBound(entries_, md->file);
  if (it != entries_.end() && it->file == md->file) {
    if (md->popularity > it->md->popularity) {
      // Copy-on-write: other holders of the shared record keep their own
      // popularity. The refresh reorders byPopularity(): also a mutation.
      auto own = std::make_shared<Metadata>(*it->md);
      own->popularity = md->popularity;
      it->md = std::move(own);
      ++generation_;
    }
    return Admission::kHeld;
  }
  if (capacity_ && entries_.size() >= *capacity_) {
    auto victim = evictionVictim();
    if (victim != entries_.end() && md->popularity < victim->md->popularity) {
      // Admission control: the incoming record would be the next victim
      // itself, so shed it instead of churning the store.
      if (shed != nullptr) *shed = md;
      return Admission::kShed;
    }
    if (victim != entries_.end()) {
      if (shed != nullptr) *shed = std::move(victim->md);
      entries_.erase(victim);
      it = lowerBound(entries_, md->file);
    }
  }
  // Entries keep 32-bit sequence numbers; no store admits 2^32 records.
  if (nextSeq_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("MetadataStore: insertion sequence exhausted");
  }
  entries_.insert(it, Entry{md->file, static_cast<std::uint32_t>(nextSeq_++),
                            md});
  earliestExpiry_ = std::min(earliestExpiry_, md->expiresAt());
  ++generation_;
  return Admission::kAdded;
}

bool MetadataStore::has(FileId file) const { return find(file) != nullptr; }

SharedMetadata MetadataStore::shared(FileId file) const {
  const Entry* entry = find(file);
  return entry == nullptr ? nullptr : entry->md;
}

std::size_t MetadataStore::expire(SimTime now) {
  if (now < earliestExpiry_) return 0;
  earliestExpiry_ = std::numeric_limits<SimTime>::max();
  // remove_if applies the predicate exactly once per entry, in order.
  const std::size_t dropped = std::erase_if(entries_, [&](const Entry& e) {
    if (e.md->expired(now)) return true;
    earliestExpiry_ = std::min(earliestExpiry_, e.md->expiresAt());
    return false;
  });
  if (dropped > 0) {
    ++generation_;
    // A store keeps its busiest day's capacity otherwise.
    if (entries_.capacity() > 2 * entries_.size() + 8) {
      entries_.shrink_to_fit();
    }
  }
  return dropped;
}

std::span<const Metadata* const> MetadataStore::byPopularity() const {
  PopularityView& view = popularityView_.getOrCreate();
  if (view.generation != generation_) {
    view.items.clear();
    for (const Entry& entry : entries_) view.items.push_back(entry.md.get());
    std::stable_sort(view.items.begin(), view.items.end(),
                     [](const Metadata* a, const Metadata* b) {
                       if (a->popularity != b->popularity) {
                         return a->popularity > b->popularity;
                       }
                       return a->file < b->file;
                     });
    view.generation = generation_;
  }
  return view.items;
}

void MetadataStore::saveState(Serializer& out, StateRefWriter& refs) const {
  out.u64(entries_.size());
  for (const Entry& entry : entries_) {
    refs.record(out, *entry.md);
    out.u64(entry.seq);
  }
  out.u64(nextSeq_);
}

void MetadataStore::loadState(Deserializer& in, StateRefReader& refs) {
  // Raw insertion: a restore must reproduce the saved store exactly, never
  // re-run capacity eviction or shed anything.
  entries_.clear();
  earliestExpiry_ = std::numeric_limits<SimTime>::max();
  ++generation_;
  const std::size_t count = in.length();
  entries_.reserve(count);
  constexpr std::uint64_t kMaxSeq = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < count; ++i) {
    SharedMetadata shared = refs.record(in);
    const std::uint64_t seq = in.u64();
    if (seq > kMaxSeq) {
      throw SerializeError("MetadataStore: insertion sequence out of range");
    }
    earliestExpiry_ = std::min(earliestExpiry_, shared->expiresAt());
    entries_.push_back(
        Entry{shared->file, static_cast<std::uint32_t>(seq), std::move(shared)});
  }
  nextSeq_ = in.u64();
  // saveState writes file-id order; a hand-made checkpoint may not. Sort,
  // and keep the first of any repeated file, as a keyed insert would.
  const auto byFile = [](const Entry& a, const Entry& b) {
    return a.file < b.file;
  };
  if (!std::is_sorted(entries_.begin(), entries_.end(), byFile)) {
    std::stable_sort(entries_.begin(), entries_.end(), byFile);
  }
  const auto repeated = std::unique(
      entries_.begin(), entries_.end(),
      [](const Entry& a, const Entry& b) { return a.file == b.file; });
  entries_.erase(repeated, entries_.end());
}

}  // namespace hdtn::core
