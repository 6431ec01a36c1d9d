// Fundamental value types shared across the hdtn library.
//
// Strong typedefs are used for identifiers so that a node id can never be
// accidentally passed where a file id is expected. Simulation time is an
// integer number of seconds since the start of the trace; every module in
// the library uses this single representation.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace hdtn {

/// Simulation time in whole seconds since trace start.
using SimTime = std::int64_t;

/// Duration in seconds.
using Duration = std::int64_t;

inline constexpr SimTime kSecond = 1;
inline constexpr SimTime kMinute = 60;
inline constexpr SimTime kHour = 3600;
inline constexpr SimTime kDay = 86400;

/// Sentinel for "never" / "no deadline".
inline constexpr SimTime kTimeInfinity = std::numeric_limits<SimTime>::max();

/// Hour of day (14:00) at which the Internet publishes the day's new files
/// in the paper's simulation model (Section VI-A).
inline constexpr SimTime kDailyPublishHour = 14 * kHour;

/// Strongly-typed integral identifier. `Tag` makes distinct instantiations
/// incompatible with each other.
template <typename Tag>
struct Id {
  std::uint32_t value = kInvalid;

  static constexpr std::uint32_t kInvalid = 0xffffffffu;

  constexpr Id() = default;
  constexpr explicit Id(std::uint32_t v) : value(v) {}

  [[nodiscard]] constexpr bool valid() const { return value != kInvalid; }

  friend constexpr auto operator<=>(Id, Id) = default;
};

struct NodeTag {};
struct FileTag {};
struct QueryTag {};

/// Identifier of a mobile node (or the Internet pseudo-node).
using NodeId = Id<NodeTag>;
/// Identifier of a published file; doubles as the index into the catalog.
using FileId = Id<FileTag>;
/// Identifier of a user query.
using QueryId = Id<QueryTag>;

/// Uniform resource identifier of a file, e.g. "dtn://fox/news-0042".
/// In this implementation the URI uniquely determines the file.
using Uri = std::string;

/// Popularity of a file/metadata in [0, 1]: the probability that a given
/// user is interested in the file (paper Section VI-A).
using Popularity = double;

}  // namespace hdtn

namespace std {
template <typename Tag>
struct hash<hdtn::Id<Tag>> {
  size_t operator()(hdtn::Id<Tag> id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
}  // namespace std
