// Synthetic UMassDieselNet-style vehicular trace generator.
//
// The real UMassDieselNet trace (Burgess et al., INFOCOM'06) is a log of
// pairwise radio contacts between ~40 transit buses in Amherst, MA. The raw
// trace is not redistributable here, so we synthesize a bus network with the
// two properties the paper's evaluation actually depends on:
//   1. contacts are strictly pairwise (buses meet on the road / at hubs);
//   2. there is a meaningful "frequent contact" relation — buses serving the
//      same or connecting routes meet at least every 3 days, others rarely.
// Meetings are Poisson within each bus's daily operating window; same-route
// pairs meet at a high rate, pairs on routes sharing a transfer hub at a
// medium rate, and unrelated pairs at a low background rate, giving the
// heavy-tailed inter-contact distribution reported for DieselNet.
#pragma once

#include <cstdint>

#include "src/trace/contact_trace.hpp"
#include "src/util/random.hpp"

namespace hdtn::trace {

struct DieselNetParams {
  int buses = 40;
  int routes = 8;
  int days = 20;
  /// Expected meetings per day for two buses on the same route.
  double sameRouteMeetingsPerDay = 2.0;
  /// Expected meetings per day for buses on routes sharing a transfer hub.
  double connectedRouteMeetingsPerDay = 0.6;
  /// Background rate for unrelated bus pairs (chance road encounters).
  double backgroundMeetingsPerDay = 0.04;
  /// Mean contact duration in seconds (exponential, min 5 s).
  double meanContactDuration = 90.0;
  /// Buses operate between these hours each day.
  SimTime dayStart = 6 * kHour;
  SimTime dayEnd = 22 * kHour;
  std::uint64_t seed = 1;
};

/// Generates the synthetic trace. Bus ids are [0, buses); bus b serves route
/// b % routes; route r connects (shares a hub) with routes r±1 (mod routes).
[[nodiscard]] ContactTrace generateDieselNet(const DieselNetParams& params);

}  // namespace hdtn::trace
