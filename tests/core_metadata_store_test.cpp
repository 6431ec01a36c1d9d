#include "src/core/metadata_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/state_refs.hpp"
#include "src/util/random.hpp"

namespace hdtn::core {
namespace {

Metadata makeMetadata(std::uint32_t id, double popularity, SimTime published,
                      Duration ttl) {
  Metadata md;
  md.file = FileId(id);
  md.name = "file " + std::to_string(id);
  md.publisher = "pub";
  md.uri = "dtn://pub/f" + std::to_string(id);
  md.popularity = popularity;
  md.publishedAt = published;
  md.ttl = ttl;
  md.rebuildKeywords();
  return md;
}

// One store's checkpoint bytes, written with a reference table of its own.
std::string storeBytes(const MetadataStore& store) {
  Serializer out;
  StateRefWriter refs;
  store.saveState(out, refs);
  return out.bytes();
}

// Restores `bytes` (one store's save) into `store`, re-sharing records
// through `interner`.
void loadStore(MetadataStore& store, const std::string& bytes,
               MetadataInterner& interner) {
  QueryInterner queries;
  StateRefReader refs(kCheckpointVersion, interner, queries);
  Deserializer in(bytes);
  store.loadState(in, refs);
}

using Admission = MetadataStore::Admission;

// Adds `md`, appending the file of any record the store sheds to `shed`.
// True when the store admitted it as a new record.
bool addCollecting(MetadataStore& store, const Metadata& md,
                   std::vector<FileId>& shed) {
  SharedMetadata out;
  const Admission admission = store.add(md, &out);
  if (out != nullptr) shed.push_back(out->file);
  return admission == Admission::kAdded;
}

TEST(MetadataStore, AddAndGet) {
  MetadataStore store;
  EXPECT_EQ(store.add(makeMetadata(1, 0.5, 0, 100)), Admission::kAdded);
  // A duplicate is already held.
  EXPECT_EQ(store.add(makeMetadata(1, 0.5, 0, 100)), Admission::kHeld);
  EXPECT_TRUE(store.has(FileId(1)));
  EXPECT_FALSE(store.has(FileId(2)));
  ASSERT_NE(store.shared(FileId(1)).get(), nullptr);
  EXPECT_EQ(store.shared(FileId(1)).get()->popularity, 0.5);
  EXPECT_EQ(store.shared(FileId(9)).get(), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(MetadataStore, RefreshKeepsHigherPopularity) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.3, 0, 100));
  store.add(makeMetadata(1, 0.8, 0, 100));  // popularity rose
  EXPECT_DOUBLE_EQ(store.shared(FileId(1)).get()->popularity, 0.8);
  store.add(makeMetadata(1, 0.1, 0, 100));  // stale snapshot ignored
  EXPECT_DOUBLE_EQ(store.shared(FileId(1)).get()->popularity, 0.8);
}

TEST(MetadataStore, ExpireDropsOldRecords) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.5, 0, 100));
  store.add(makeMetadata(2, 0.5, 50, 100));
  EXPECT_EQ(store.expire(100), 1u);  // file 1 expires exactly at 100
  EXPECT_FALSE(store.has(FileId(1)));
  EXPECT_TRUE(store.has(FileId(2)));
  EXPECT_EQ(store.expire(100), 0u);  // idempotent
}

TEST(MetadataStore, ExpireSeesRecordArrivingBelowWatermark) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.5, 0, 1000));
  EXPECT_EQ(store.expire(10), 0u);  // scan: nothing expires before 1000
  store.add(makeMetadata(2, 0.5, 0, 50));  // expires before the bound
  EXPECT_EQ(store.expire(49), 0u);
  EXPECT_EQ(store.expire(50), 1u);
  EXPECT_FALSE(store.has(FileId(2)));
  EXPECT_TRUE(store.has(FileId(1)));
}

TEST(MetadataStore, ExpireExactlyAtExpiresAt) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.5, 10, 100));
  EXPECT_EQ(store.expire(109), 0u);
  EXPECT_TRUE(store.has(FileId(1)));
  EXPECT_EQ(store.expire(110), 1u);
  EXPECT_TRUE(store.empty());
}

TEST(MetadataStore, PopularityRefreshKeepsOriginalExpiry) {
  MetadataStore store;
  store.add(makeMetadata(1, 0.3, 0, 100));
  EXPECT_EQ(store.expire(50), 0u);
  // A refresh raises popularity only; the later publish time is ignored.
  store.add(makeMetadata(1, 0.8, 60, 100));
  EXPECT_EQ(store.expire(99), 0u);
  EXPECT_EQ(store.expire(100), 1u);
  EXPECT_FALSE(store.has(FileId(1)));
}

TEST(MetadataStore, ExpireAfterLoadStateSeesRestoredRecords) {
  MetadataStore source;
  source.add(makeMetadata(1, 0.5, 0, 100));
  const std::string bytes = storeBytes(source);

  MetadataStore restored;
  restored.add(makeMetadata(2, 0.5, 0, 1000));
  EXPECT_EQ(restored.expire(10), 0u);  // watermark now 1000
  MetadataInterner interner;
  loadStore(restored, bytes, interner);
  EXPECT_EQ(restored.expire(99), 0u);
  EXPECT_EQ(restored.expire(100), 1u);
  EXPECT_TRUE(restored.empty());
}

// An expire() that drops most records moves the rest to an exact-size
// vector. The store answers all(), byPopularity() and get() for them as it
// did before the drop, with the same record objects, and keeps taking
// records after it.
TEST(MetadataStore, ShrinkOnExpireKeepsEveryAnswer) {
  MetadataStore store;
  Rng rng(5);
  for (std::uint32_t id = 0; id < 200; ++id) {
    // Every tenth record outlives the drop: 20 of 200 stay.
    store.add(makeMetadata(id, rng.uniform(), 0, id % 10 == 0 ? 9 * kDay
                                                              : kDay));
  }
  ASSERT_FALSE(store.byPopularity().empty());  // builds the cached view
  const auto survives = [](const Metadata* md) {
    return md->expiresAt() > kDay;
  };
  std::vector<const Metadata*> all;
  for (const Metadata* md : store.all()) {
    if (survives(md)) all.push_back(md);
  }
  std::vector<const Metadata*> byPopularity;
  for (const Metadata* md : store.byPopularity()) {
    if (survives(md)) byPopularity.push_back(md);
  }
  std::vector<const Metadata*> got;
  for (std::uint32_t id = 0; id < 200; ++id) {
    const Metadata* md = store.shared(FileId(id)).get();
    got.push_back(survives(md) ? md : nullptr);
  }

  EXPECT_EQ(store.expire(kDay), 180u);
  EXPECT_EQ(std::vector<const Metadata*>(store.all().begin(),
                                         store.all().end()),
            all);
  const auto view = store.byPopularity();
  EXPECT_EQ(std::vector<const Metadata*>(view.begin(), view.end()),
            byPopularity);
  for (std::uint32_t id = 0; id < 200; ++id) {
    EXPECT_EQ(store.shared(FileId(id)).get(), got[id]) << id;
  }

  EXPECT_EQ(store.add(makeMetadata(500, 0.5, kDay, kDay)), Admission::kAdded);
  EXPECT_EQ(store.size(), 21u);
  EXPECT_EQ(store.all()[20]->file, FileId(500));
}

TEST(MetadataStore, AllSortedByFileId) {
  MetadataStore store;
  store.add(makeMetadata(5, 0.1, 0, 100));
  store.add(makeMetadata(1, 0.9, 0, 100));
  store.add(makeMetadata(3, 0.5, 0, 100));
  const auto all = store.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->file, FileId(1));
  EXPECT_EQ(all[1]->file, FileId(3));
  EXPECT_EQ(all[2]->file, FileId(5));
}

TEST(MetadataStore, ByPopularityDescendingWithIdTiebreak) {
  MetadataStore store;
  store.add(makeMetadata(5, 0.5, 0, 100));
  store.add(makeMetadata(1, 0.9, 0, 100));
  store.add(makeMetadata(3, 0.5, 0, 100));
  const auto sorted = store.byPopularity();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0]->file, FileId(1));
  EXPECT_EQ(sorted[1]->file, FileId(3));  // tie broken by smaller id
  EXPECT_EQ(sorted[2]->file, FileId(5));
}

TEST(MetadataStore, BoundedStoreEvictsLowestPopularity) {
  MetadataStore store(2);
  std::vector<FileId> shed;
  EXPECT_TRUE(addCollecting(store, makeMetadata(1, 0.2, 0, 100), shed));
  EXPECT_TRUE(addCollecting(store, makeMetadata(2, 0.5, 0, 100), shed));
  // A more popular record displaces the least-popular stored one.
  EXPECT_TRUE(addCollecting(store, makeMetadata(3, 0.9, 0, 100), shed));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.has(FileId(1)));
  EXPECT_TRUE(store.has(FileId(2)));
  EXPECT_TRUE(store.has(FileId(3)));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], FileId(1));
}

TEST(MetadataStore, BoundedStoreShedsIncomingWhenLeastPopular) {
  MetadataStore store(2);
  std::vector<FileId> shed;
  addCollecting(store, makeMetadata(1, 0.5, 0, 100), shed);
  addCollecting(store, makeMetadata(2, 0.7, 0, 100), shed);
  // The incoming record is the victim: admission refused, store unchanged.
  EXPECT_FALSE(addCollecting(store, makeMetadata(3, 0.1, 0, 100), shed));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.has(FileId(3)));
  EXPECT_TRUE(store.has(FileId(1)));
  EXPECT_TRUE(store.has(FileId(2)));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], FileId(3));
}

TEST(MetadataStore, BoundedEvictionTiesBreakOldestFirst) {
  MetadataStore store(2);
  std::vector<FileId> shed;
  // 5 is the oldest at the tied popularity.
  addCollecting(store, makeMetadata(5, 0.4, 0, 100), shed);
  addCollecting(store, makeMetadata(2, 0.4, 0, 100), shed);
  addCollecting(store, makeMetadata(9, 0.8, 0, 100), shed);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], FileId(5));  // insertion order, not file id
  EXPECT_TRUE(store.has(FileId(2)));
}

TEST(MetadataStore, BoundedRefreshNeverEvicts) {
  MetadataStore store(2);
  std::vector<FileId> shed;
  addCollecting(store, makeMetadata(1, 0.3, 0, 100), shed);
  addCollecting(store, makeMetadata(2, 0.6, 0, 100), shed);
  // Refreshing a held record is not an insertion: no capacity pressure.
  EXPECT_FALSE(addCollecting(store, makeMetadata(1, 0.9, 0, 100), shed));
  EXPECT_TRUE(shed.empty());
  EXPECT_DOUBLE_EQ(store.shared(FileId(1)).get()->popularity, 0.9);
}

TEST(MetadataStore, BoundedSaveLoadRoundTripKeepsEvictionOrder) {
  MetadataStore store(3);
  store.add(makeMetadata(1, 0.5, 0, 100));
  store.add(makeMetadata(2, 0.5, 0, 100));
  store.add(makeMetadata(3, 0.9, 0, 100));
  MetadataStore restored(3);
  MetadataInterner interner;
  loadStore(restored, storeBytes(store), interner);
  EXPECT_EQ(restored.size(), 3u);
  // The restored store must evict the same victim the original would:
  // insertion seq survives the round trip.
  std::vector<FileId> shed;
  addCollecting(restored, makeMetadata(4, 0.8, 0, 100), shed);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], FileId(1));  // tied with 2 on popularity, but older
}

// --- shared records --------------------------------------------------------

SharedMetadata makeShared(std::uint32_t id, double popularity) {
  return std::make_shared<const Metadata>(makeMetadata(id, popularity, 0, 100));
}

TEST(MetadataStoreSharing, StoresHoldTheObjectTheyAreGiven) {
  const SharedMetadata md = makeShared(1, 0.3);
  MetadataStore a;
  MetadataStore b;
  EXPECT_EQ(a.add(md), Admission::kAdded);
  EXPECT_EQ(b.add(md), Admission::kAdded);
  EXPECT_EQ(a.shared(FileId(1)).get(), md.get());
  EXPECT_EQ(b.shared(FileId(1)).get(), md.get());
  EXPECT_EQ(a.shared(FileId(1)), md);
  EXPECT_EQ(a.all()[0], md.get());
  EXPECT_EQ(a.shared(FileId(2)), nullptr);
  // A store forwards the object it holds, not a copy of it.
  MetadataStore c;
  c.add(a.shared(FileId(1)));
  EXPECT_EQ(c.shared(FileId(1)).get(), md.get());
}

TEST(MetadataStoreSharing, RefreshCopiesOnWrite) {
  const SharedMetadata md = makeShared(1, 0.3);
  MetadataStore a;
  MetadataStore b;
  a.add(md);
  b.add(md);
  EXPECT_EQ(a.add(makeShared(1, 0.8)), Admission::kHeld);
  // `a` now holds a private copy with the raised popularity...
  const Metadata* own = a.shared(FileId(1)).get();
  ASSERT_NE(own, nullptr);
  EXPECT_NE(own, md.get());
  EXPECT_DOUBLE_EQ(own->popularity, 0.8);
  Metadata expected = *md;
  expected.popularity = 0.8;
  EXPECT_EQ(*own, expected);
  // ...while the other holder and the original keep the old one.
  EXPECT_EQ(b.shared(FileId(1)).get(), md.get());
  EXPECT_DOUBLE_EQ(md->popularity, 0.3);
  EXPECT_DOUBLE_EQ(b.byPopularity()[0]->popularity, 0.3);
  // A lower snapshot changes nothing, in either store.
  EXPECT_EQ(b.add(makeShared(1, 0.1)), Admission::kHeld);
  EXPECT_EQ(b.shared(FileId(1)).get(), md.get());
  EXPECT_EQ(a.shared(FileId(1)).get(), own);
}

TEST(MetadataStoreSharing, EvictionHookReceivesTheShedRecord) {
  MetadataStore store(1);
  std::vector<SharedMetadata> shed(3);
  const SharedMetadata low = makeShared(1, 0.2);
  const SharedMetadata high = makeShared(2, 0.9);
  const SharedMetadata lower = makeShared(3, 0.1);
  store.add(low, &shed[0]);
  store.add(high, &shed[1]);   // evicts `low`
  store.add(lower, &shed[2]);  // refused admission
  EXPECT_EQ(shed[0], nullptr);
  EXPECT_EQ(shed[1], low);
  EXPECT_EQ(shed[2], lower);
  EXPECT_EQ(store.shared(FileId(2)).get(), high.get());
}

TEST(MetadataStoreSharing, InternedLoadReusesEqualRecords) {
  const SharedMetadata catalogRecord = makeShared(1, 0.3);
  MetadataStore source;
  source.add(catalogRecord);
  source.add(makeShared(2, 0.5));
  const std::string bytes = storeBytes(source);
  MetadataStore raised;
  raised.add(catalogRecord);
  raised.add(makeShared(1, 0.6));  // a private, more popular copy
  const std::string raisedBytes = storeBytes(raised);

  MetadataInterner interner;
  interner.seed(catalogRecord);
  MetadataStore first;
  MetadataStore second;
  MetadataStore third;
  loadStore(first, bytes, interner);
  loadStore(second, bytes, interner);
  loadStore(third, raisedBytes, interner);
  EXPECT_EQ(first.shared(FileId(1)).get(), catalogRecord.get());
  EXPECT_EQ(second.shared(FileId(1)).get(), catalogRecord.get());
  EXPECT_EQ(first.shared(FileId(2)).get(), second.shared(FileId(2)).get());
  // A record that differs in any field keeps its own object.
  EXPECT_NE(third.shared(FileId(1)).get(), catalogRecord.get());
  EXPECT_DOUBLE_EQ(third.shared(FileId(1)).get()->popularity, 0.6);
  // ...and later records equal to it reuse that object.
  MetadataStore fourth;
  loadStore(fourth, raisedBytes, interner);
  EXPECT_EQ(fourth.shared(FileId(1)).get(), third.shared(FileId(1)).get());
}

TEST(MetadataStoreSharing, InternerKeepsEverySnapshotOfAFile) {
  // A file re-published with a new popularity each day leaves holders with
  // one snapshot per day; every snapshot is re-shared, however many.
  constexpr int kSnapshots = 20;
  std::vector<std::string> saved;
  for (int day = 0; day < kSnapshots; ++day) {
    MetadataStore store;
    store.add(makeMetadata(1, 0.01 * (day + 1), 0, 100));
    saved.push_back(storeBytes(store));
  }
  MetadataInterner interner;
  std::vector<MetadataStore> first(kSnapshots);
  std::vector<MetadataStore> second(kSnapshots);
  for (int day = 0; day < kSnapshots; ++day) {
    loadStore(first[day], saved[day], interner);
    loadStore(second[day], saved[day], interner);
  }
  for (int day = 0; day < kSnapshots; ++day) {
    EXPECT_EQ(second[day].shared(FileId(1)).get(),
              first[day].shared(FileId(1)).get())
        << day;
    EXPECT_DOUBLE_EQ(first[day].shared(FileId(1))->popularity,
                     0.01 * (day + 1));
  }
}

TEST(MetadataStoreSharing, InternerKeepsAnUnequalRecordApart) {
  // Same file and popularity, another publish time: only a hand-built
  // checkpoint holds such a pair, and each keeps its own object.
  const SharedMetadata catalogRecord = makeShared(1, 0.3);
  MetadataStore other;
  other.add(makeMetadata(1, 0.3, 50, 100));
  MetadataInterner interner;
  interner.seed(catalogRecord);
  MetadataStore restored;
  loadStore(restored, storeBytes(other), interner);
  ASSERT_NE(restored.shared(FileId(1)).get(), nullptr);
  EXPECT_NE(restored.shared(FileId(1)).get(), catalogRecord.get());
  EXPECT_EQ(restored.shared(FileId(1)).get()->publishedAt, 50);
}

// --- property test against a std::map model ---------------------------------

// MetadataStore's rules written the obvious way over a std::map: the flat
// store must agree with it on every query and byte.
class StoreModel {
 public:
  explicit StoreModel(std::optional<std::size_t> capacity)
      : capacity_(capacity) {}

  /// (admitted, shed record or null).
  std::pair<bool, SharedMetadata> add(const SharedMetadata& md) {
    auto it = held_.find(md->file);
    if (it != held_.end()) {
      if (md->popularity > it->second.md->popularity) {
        auto own = std::make_shared<Metadata>(*it->second.md);
        own->popularity = md->popularity;
        it->second.md = std::move(own);
      }
      return {false, nullptr};
    }
    SharedMetadata shed;
    if (capacity_ && held_.size() >= *capacity_) {
      auto victim = held_.end();
      for (auto v = held_.begin(); v != held_.end(); ++v) {
        if (victim == held_.end() ||
            std::pair(v->second.md->popularity, v->second.seq) <
                std::pair(victim->second.md->popularity, victim->second.seq)) {
          victim = v;
        }
      }
      if (victim != held_.end() &&
          md->popularity < victim->second.md->popularity) {
        return {false, md};
      }
      if (victim != held_.end()) {
        shed = victim->second.md;
        held_.erase(victim);
      }
    }
    held_.emplace(md->file, Held{md, nextSeq_++});
    return {true, shed};
  }

  std::size_t expire(SimTime now) {
    return std::erase_if(held_,
                         [&](const auto& kv) { return kv.second.md->expired(now); });
  }

  [[nodiscard]] std::vector<const Metadata*> all() const {
    std::vector<const Metadata*> out;
    for (const auto& [file, h] : held_) out.push_back(h.md.get());
    return out;
  }

  [[nodiscard]] std::vector<const Metadata*> byPopularity() const {
    std::vector<const Metadata*> out = all();
    std::sort(out.begin(), out.end(), [](const Metadata* a, const Metadata* b) {
      if (a->popularity != b->popularity) return a->popularity > b->popularity;
      return a->file < b->file;
    });
    return out;
  }

  [[nodiscard]] std::string bytes() const {
    Serializer out;
    out.u64(held_.size());
    // Every record of one store is of another file, so each reference is
    // a new table entry followed by the record in full.
    std::uint32_t reference = 0;
    for (const auto& [file, h] : held_) {
      out.u32(reference++);
      h.md->saveState(out);
      out.u64(h.seq);
    }
    out.u64(nextSeq_);
    return out.bytes();
  }

  [[nodiscard]] const Metadata* get(FileId file) const {
    const auto it = held_.find(file);
    return it == held_.end() ? nullptr : it->second.md.get();
  }

 private:
  struct Held {
    SharedMetadata md;
    std::uint64_t seq = 0;
  };
  std::map<FileId, Held> held_;
  std::uint64_t nextSeq_ = 1;
  std::optional<std::size_t> capacity_;
};

TEST(MetadataStoreProperty, MatchesMapModel) {
  constexpr std::uint32_t kFiles = 24;
  for (const std::optional<std::size_t> capacity :
       {std::optional<std::size_t>{}, std::optional<std::size_t>{1},
        std::optional<std::size_t>{3}, std::optional<std::size_t>{8}}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      Rng rng(seed * 31 + capacity.value_or(0));
      MetadataStore store = capacity ? MetadataStore(*capacity)
                                     : MetadataStore();
      StoreModel model(capacity);
      SimTime now = 0;
      for (int step = 0; step < 300; ++step) {
        const std::string where = "capacity " +
                                  std::to_string(capacity.value_or(0)) +
                                  " seed " + std::to_string(seed) + " step " +
                                  std::to_string(step);
        now += rng.uniformInt(0, 20);
        const FileId file(static_cast<std::uint32_t>(
            1 + rng.uniformInt(0, kFiles - 1) * 7 % 61));
        const std::int64_t op = rng.uniformInt(0, 9);
        if (op < 6) {
          // Popularities on a coarse grid, so ties (the seq tie-break)
          // and refreshes both happen.
          const SharedMetadata md = std::make_shared<const Metadata>(
              makeMetadata(file.value,
                           static_cast<double>(rng.uniformInt(1, 5)) / 5.0,
                           now - rng.uniformInt(0, 50),
                           rng.uniformInt(20, 200)));
          SharedMetadata shed;
          const Admission admission = store.add(md, &shed);
          const auto [modelAdmitted, modelShed] = model.add(md);
          EXPECT_EQ(admission == Admission::kAdded, modelAdmitted) << where;
          // Shed on admission: the store hands back the record it refused.
          EXPECT_EQ(admission == Admission::kShed, shed == md) << where;
          // By value: refresh copies and restores make objects of their own.
          ASSERT_EQ(shed == nullptr, modelShed == nullptr) << where;
          if (shed != nullptr) {
            EXPECT_EQ(*shed, *modelShed) << where;
          }
        } else if (op < 8) {
          EXPECT_EQ(store.expire(now), model.expire(now)) << where;
        } else {
          // Round trip through a checkpoint.
          const std::string bytes = storeBytes(store);
          MetadataStore restored = capacity ? MetadataStore(*capacity)
                                            : MetadataStore();
          MetadataInterner interner;
          loadStore(restored, bytes, interner);
          EXPECT_EQ(storeBytes(restored), bytes) << where;
          store = std::move(restored);
        }

        const auto all = store.all();
        const std::vector<const Metadata*> held(all.begin(), all.end());
        const std::vector<const Metadata*> expected = model.all();
        ASSERT_EQ(held.size(), expected.size()) << where;
        EXPECT_EQ(store.size(), expected.size()) << where;
        for (std::size_t i = 0; i < held.size(); ++i) {
          EXPECT_EQ(*held[i], *expected[i]) << where << " entry " << i;
        }
        const auto byPopularity = store.byPopularity();
        const std::vector<const Metadata*> expectedByPopularity =
            model.byPopularity();
        ASSERT_EQ(byPopularity.size(), expectedByPopularity.size()) << where;
        for (std::size_t i = 0; i < byPopularity.size(); ++i) {
          EXPECT_EQ(byPopularity[i]->file, expectedByPopularity[i]->file)
              << where << " rank " << i;
        }
        for (std::uint32_t f = 0; f <= 61; ++f) {
          const Metadata* md = model.get(FileId(f));
          EXPECT_EQ(store.has(FileId(f)), md != nullptr) << where;
          if (md == nullptr) continue;
          ASSERT_NE(store.shared(FileId(f)).get(), nullptr) << where;
          EXPECT_EQ(*store.shared(FileId(f)).get(), *md) << where;
        }
        EXPECT_EQ(storeBytes(store), model.bytes()) << where;
      }
    }
  }
}

}  // namespace
}  // namespace hdtn::core
