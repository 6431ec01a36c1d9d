// The Internet side of the hybrid DTN.
//
// "A hybrid DTN is a DTN that surrounds the Internet" (Section III-A): the
// Internet is the sole source of files, hosts the metadata server, and
// maintains global metadata popularity. Internet-access nodes interact with
// these services directly; everyone else reaches them only through DTN
// cooperation.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/file_catalog.hpp"
#include "src/core/metadata.hpp"
#include "src/core/query.hpp"
#include "src/util/random.hpp"
#include "src/util/serialize.hpp"
#include "src/util/types.hpp"

namespace hdtn::obs {
class EngineObserver;  // src/obs/events.hpp
}

namespace hdtn::core {

/// Sliding-window popularity observation: the paper suggests defining
/// popularity as "the percentage of Internet access nodes requesting the
/// file of the metadata in the past 24 hours".
class PopularityTable {
 public:
  explicit PopularityTable(Duration window = kDay) : window_(window) {}

  /// Records that `requester` asked to download `file` at `now`.
  void recordRequest(FileId file, NodeId requester, SimTime now);

  /// Distinct requesters within the window ending at `now`, divided by
  /// `population`. Returns 0 for unknown files or zero population.
  [[nodiscard]] double observed(FileId file, SimTime now,
                                std::size_t population) const;

  /// Checkpoints all request events (file-id ascending; per-file deques
  /// keep their order).
  void saveState(Serializer& out) const;
  void loadState(Deserializer& in);

 private:
  struct Event {
    SimTime when;
    NodeId who;
  };
  Duration window_;
  std::unordered_map<FileId, std::deque<Event>> events_;
};

class InternetServices {
 public:
  InternetServices();

  [[nodiscard]] PublisherRegistry& registry() { return registry_; }
  [[nodiscard]] const PublisherRegistry& registry() const {
    return registry_;
  }
  [[nodiscard]] FileCatalog& catalog() { return catalog_; }
  [[nodiscard]] const FileCatalog& catalog() const { return catalog_; }
  [[nodiscard]] PopularityTable& popularity() { return popularity_; }

  /// Publishes through the catalog (registering the publisher first when
  /// unknown, with a derived secret). Emits kFilePublished when an observer
  /// is attached (time = publishedAt, value = popularity).
  FileId publish(const FileCatalog::PublishRequest& request);

  /// Attaches a non-owning observer notified of publications; nullptr
  /// detaches. The engine forwards its own observer here.
  void setObserver(obs::EngineObserver* observer) { observer_ = observer; }

  /// Server-side keyword search over the catalog's records of the files
  /// alive at `now`, ranked by rankMatches. The catalog's records answer
  /// from the query's match row (see matches()).
  [[nodiscard]] std::vector<RankedMatch> search(const FileQuery& query,
                                                SimTime now) const;

  /// Metadata of alive files in decreasing popularity, at most `limit`:
  /// the catalog's own record objects, so holders share them.
  [[nodiscard]] std::vector<SharedMetadata> topPopular(
      SimTime now, std::size_t limit) const;

  /// Checkpoints the catalog (as publish requests carrying the *current*
  /// popularity) and the popularity table. loadState re-publishes every
  /// file in order on an empty catalog, reproducing identical FileIds,
  /// URIs, piece checksums, auth tags, and registry secrets (the auth
  /// payload does not cover popularity). Must be called with no observer
  /// attached so the replayed publications emit no events.
  void saveState(Serializer& out) const;
  void loadState(Deserializer& in);

 private:
  PublisherRegistry registry_;
  FileCatalog catalog_;
  PopularityTable popularity_;
  obs::EngineObserver* observer_ = nullptr;
};

/// Parameters for one day's synthetic publication batch (Section VI-A: "a
/// number n of new files are generated on the Internet every day at 2PM").
struct SyntheticBatchParams {
  int count = 40;
  SimTime publishedAt = 0;
  Duration ttl = 3 * kDay;
  /// Popularity distribution shape; the paper uses lambda = count / 2.
  double lambda = 20.0;
  std::uint32_t piecesPerFile = 1;
  std::uint32_t pieceSizeBytes = 1024;
};

/// Publishes `params.count` files with names drawn from a publisher/topic
/// vocabulary and popularity from the paper's distribution. Returns the new
/// file ids in publication order.
std::vector<FileId> publishSyntheticBatch(InternetServices& internet,
                                          const SyntheticBatchParams& params,
                                          Rng& rng);

/// The ground-truth query string a user interested in this file would type:
/// distinctive enough to identify the file (topic + unique episode token).
[[nodiscard]] std::string canonicalQueryText(const FileInfo& info);

}  // namespace hdtn::core
