#include "src/trace/dieselnet.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hdtn::trace {
namespace {

bool routesConnected(int a, int b, int routes) {
  const int diff = std::abs(a - b);
  return diff == 1 || diff == routes - 1;
}

int routeOf(const DieselNetParams& params, NodeId bus) {
  return static_cast<int>(bus.value) % params.routes;
}

}  // namespace

ContactTrace generateDieselNet(const DieselNetParams& params) {
  assert(params.buses >= 2);
  assert(params.routes >= 1);
  assert(params.days >= 1);
  assert(params.dayEnd > params.dayStart);

  ContactTrace out("dieselnet", static_cast<std::size_t>(params.buses));
  Rng rng(params.seed);

  const double windowSeconds =
      static_cast<double>(params.dayEnd - params.dayStart);

  for (std::uint32_t a = 0; a < static_cast<std::uint32_t>(params.buses);
       ++a) {
    for (std::uint32_t b = a + 1;
         b < static_cast<std::uint32_t>(params.buses); ++b) {
      const int routeA = routeOf(params, NodeId(a));
      const int routeB = routeOf(params, NodeId(b));
      double ratePerDay = params.backgroundMeetingsPerDay;
      if (routeA == routeB) {
        ratePerDay = params.sameRouteMeetingsPerDay;
      } else if (routesConnected(routeA, routeB, params.routes)) {
        ratePerDay = params.connectedRouteMeetingsPerDay;
      }
      if (ratePerDay <= 0.0) continue;

      // Poisson arrivals within each day's operating window. Meetings are
      // independent across days (buses restart their shifts each morning).
      for (int day = 0; day < params.days; ++day) {
        const SimTime dayBase = static_cast<SimTime>(day) * kDay;
        double t = 0.0;
        while (true) {
          t += rng.exponential(windowSeconds / ratePerDay);
          if (t >= windowSeconds) break;
          const auto start =
              dayBase + params.dayStart + static_cast<SimTime>(t);
          const auto duration = static_cast<Duration>(
              std::max(5.0, rng.exponential(params.meanContactDuration)));
          Contact c;
          c.start = start;
          c.end = start + duration;
          c.members = {NodeId(a), NodeId(b)};
          out.addContact(std::move(c));
        }
      }
    }
  }
  out.sortByStart();
  return out;
}

}  // namespace hdtn::trace
