#include "src/core/internet.hpp"

#include <algorithm>
#include <set>

#include "src/obs/events.hpp"
#include "src/util/string_util.hpp"

namespace hdtn::core {
namespace {

constexpr const char* kPublishers[] = {"fox", "abc",  "nbc",
                                       "cnn", "espn", "bbc"};
constexpr const char* kTopics[] = {"news",  "drama",  "comedy", "sports",
                                   "music", "travel", "tech",   "science"};
constexpr const char* kStyles[] = {"daily", "weekly", "special",  "live",
                                   "prime", "late",   "breaking", "classic"};

}  // namespace

void PopularityTable::recordRequest(FileId file, NodeId requester,
                                    SimTime now) {
  events_[file].push_back(Event{now, requester});
}

double PopularityTable::observed(FileId file, SimTime now,
                                 std::size_t population) const {
  if (population == 0) return 0.0;
  auto it = events_.find(file);
  if (it == events_.end()) return 0.0;
  std::set<NodeId> distinct;
  for (const Event& e : it->second) {
    if (e.when > now - window_ && e.when <= now) distinct.insert(e.who);
  }
  return static_cast<double>(distinct.size()) /
         static_cast<double>(population);
}

void PopularityTable::saveState(Serializer& out) const {
  std::vector<FileId> sorted;
  sorted.reserve(events_.size());
  for (const auto& [file, _] : events_) sorted.push_back(file);
  std::sort(sorted.begin(), sorted.end());
  out.u64(sorted.size());
  for (const FileId file : sorted) {
    const auto& events = events_.at(file);
    out.u32(file.value);
    out.u64(events.size());
    for (const Event& e : events) {
      out.i64(e.when);
      out.u32(e.who.value);
    }
  }
}

void PopularityTable::loadState(Deserializer& in) {
  events_.clear();
  const std::size_t fileCount = in.length();
  for (std::size_t i = 0; i < fileCount; ++i) {
    const FileId file{in.u32()};
    auto& events = events_[file];
    const std::size_t eventCount = in.length();
    for (std::size_t j = 0; j < eventCount; ++j) {
      const SimTime when = in.i64();
      events.push_back(Event{when, NodeId{in.u32()}});
    }
  }
}

InternetServices::InternetServices() : catalog_(&registry_) {}

void InternetServices::saveState(Serializer& out) const {
  const std::vector<FileId> files = catalog_.allFiles();
  out.u64(files.size());
  for (const FileId id : files) {
    const FileInfo* info = catalog_.find(id);
    out.str(info->name);
    out.str(info->publisher);
    out.str(info->description);
    out.u64(info->sizeBytes);
    out.u32(info->pieceSizeBytes);
    out.f64(info->popularity);
    out.i64(info->publishedAt);
    out.i64(info->ttl);
  }
  popularity_.saveState(out);
}

void InternetServices::loadState(Deserializer& in) {
  if (catalog_.size() != 0) {
    throw SerializeError("InternetServices::loadState needs an empty catalog");
  }
  const std::size_t fileCount = in.length();
  for (std::size_t i = 0; i < fileCount; ++i) {
    FileCatalog::PublishRequest req;
    req.name = in.str();
    req.publisher = in.str();
    req.description = in.str();
    req.sizeBytes = in.u64();
    req.pieceSizeBytes = in.u32();
    req.popularity = in.f64();
    req.publishedAt = in.i64();
    req.ttl = in.i64();
    publish(req);
  }
  popularity_.loadState(in);
}

FileId InternetServices::publish(const FileCatalog::PublishRequest& request) {
  if (!registry_.knows(request.publisher)) {
    // Well-known organizations register once; the derived secret stands in
    // for their signing key.
    registry_.registerPublisher(request.publisher,
                                "secret::" + request.publisher);
  }
  const FileId id = catalog_.publish(request);
  if (observer_ != nullptr) {
    obs::SimEvent event;
    event.type = obs::SimEventType::kFilePublished;
    event.time = request.publishedAt;
    event.file = id;
    event.value = request.popularity;
    observer_->onEvent(event);
  }
  return id;
}

std::vector<RankedMatch> InternetServices::search(const FileQuery& query,
                                                  SimTime now) const {
  std::vector<const Metadata*> matched;
  query.forEachMatch(catalog_, catalog_.firstUnexpired(now),
                     static_cast<std::uint32_t>(catalog_.size()),
                     [&](FileId id) {
                       if (catalog_.find(id)->alive(now)) {
                         matched.push_back(&catalog_.metadataFor(id));
                       }
                     });
  return rankMatches(query, matched, &catalog_);
}

std::vector<SharedMetadata> InternetServices::topPopular(
    SimTime now, std::size_t limit) const {
  std::vector<SharedMetadata> out;
  for (FileId id : catalog_.aliveFiles(now)) {
    out.push_back(catalog_.sharedMetadataFor(id));
  }
  std::sort(out.begin(), out.end(),
            [](const SharedMetadata& a, const SharedMetadata& b) {
              if (a->popularity != b->popularity) {
                return a->popularity > b->popularity;
              }
              return a->file < b->file;
            });
  if (out.size() > limit) out.resize(limit);
  return out;
}

std::vector<FileId> publishSyntheticBatch(InternetServices& internet,
                                          const SyntheticBatchParams& params,
                                          Rng& rng) {
  std::vector<FileId> out;
  out.reserve(static_cast<std::size_t>(params.count));
  for (int i = 0; i < params.count; ++i) {
    FileCatalog::PublishRequest req;
    const char* publisher =
        kPublishers[rng.pickIndex(std::size(kPublishers))];
    const char* topic = kTopics[rng.pickIndex(std::size(kTopics))];
    const char* style = kStyles[rng.pickIndex(std::size(kStyles))];
    // The unique episode token makes the canonical query unambiguous; the
    // shared topic/style vocabulary makes partial queries ambiguous, as in
    // real keyword search.
    const std::string episode =
        "ep" + std::to_string(internet.catalog().size());
    req.name = std::string(publisher) + " " + topic + " " + style + " " +
               episode;
    req.publisher = publisher;
    req.description = std::string("poster advertisement for the ") + style +
                      " " + topic + " show " + episode + " by " + publisher;
    req.sizeBytes = static_cast<std::uint64_t>(params.piecesPerFile) *
                    kSyntheticPieceSizeBytes;
    req.pieceSizeBytes = kSyntheticPieceSizeBytes;
    req.popularity = samplePopularity(rng, params.lambda);
    req.publishedAt = params.publishedAt;
    req.ttl = params.ttl;
    out.push_back(internet.publish(req));
  }
  return out;
}

std::string canonicalQueryText(const FileInfo& info) {
  // "<topic> ep<k>": the topic narrows the category, the episode token
  // pins the exact file.
  const auto tokens = keywordTokens(info.name);
  // name = "<publisher> <topic> <style> <episode>"
  if (tokens.size() >= 4) return tokens[1] + " " + tokens[3];
  return info.name;
}

}  // namespace hdtn::core
