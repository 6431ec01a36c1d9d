#include "src/trace/dieselnet.hpp"

#include <gtest/gtest.h>

#include <map>

#include "src/trace/trace_stats.hpp"

namespace hdtn::trace {
namespace {

/// The generator's documented route rule: bus b serves route b % routes.
int routeOf(const DieselNetParams& p, NodeId bus) {
  return static_cast<int>(bus.value) % p.routes;
}

DieselNetParams smallParams() {
  DieselNetParams p;
  p.buses = 12;
  p.routes = 4;
  p.days = 6;
  p.seed = 5;
  return p;
}

TEST(DieselNet, StrictlyPairwise) {
  const auto trace = generateDieselNet(smallParams());
  EXPECT_TRUE(trace.isPairwiseOnly());
  EXPECT_GT(trace.contactCount(), 0u);
}

TEST(DieselNet, DeterministicInSeed) {
  const auto a = generateDieselNet(smallParams());
  const auto b = generateDieselNet(smallParams());
  ASSERT_EQ(a.contactCount(), b.contactCount());
  for (std::size_t i = 0; i < a.contactCount(); ++i) {
    EXPECT_EQ(a.contacts()[i], b.contacts()[i]);
  }
  DieselNetParams other = smallParams();
  other.seed = 6;
  const auto c = generateDieselNet(other);
  EXPECT_NE(a.contactCount(), c.contactCount());
}

TEST(DieselNet, ContactsWithinOperatingWindow) {
  const DieselNetParams p = smallParams();
  const auto trace = generateDieselNet(p);
  for (const Contact& c : trace.contacts()) {
    const SimTime dayOffset = c.start % kDay;
    EXPECT_GE(dayOffset, p.dayStart);
    EXPECT_LT(dayOffset, p.dayEnd);
    EXPECT_GE(c.duration(), 5);
  }
}

TEST(DieselNet, NodeCountMatchesBuses) {
  const auto trace = generateDieselNet(smallParams());
  EXPECT_EQ(trace.nodeCount(), 12u);
}

TEST(DieselNet, SameRoutePairsMeetMoreOften) {
  DieselNetParams p;
  p.buses = 16;
  p.routes = 4;
  p.days = 10;
  p.seed = 11;
  const auto trace = generateDieselNet(p);
  // Every DieselNet contact is one pair.
  std::map<NodePair, std::size_t> counts;
  for (const Contact& c : trace.contacts()) {
    ++counts[makePair(c.members[0], c.members[1])];
  }
  double sameRouteTotal = 0, sameRoutePairs = 0;
  double otherTotal = 0, otherPairs = 0;
  for (std::uint32_t a = 0; a < 16; ++a) {
    for (std::uint32_t b = a + 1; b < 16; ++b) {
      const auto it = counts.find(makePair(NodeId(a), NodeId(b)));
      const double n =
          it == counts.end() ? 0.0 : static_cast<double>(it->second);
      if (routeOf(p, NodeId(a)) == routeOf(p, NodeId(b))) {
        sameRouteTotal += n;
        ++sameRoutePairs;
      } else {
        otherTotal += n;
        ++otherPairs;
      }
    }
  }
  EXPECT_GT(sameRouteTotal / sameRoutePairs, otherTotal / otherPairs);
}

TEST(DieselNet, MeetingRateApproximatesParameter) {
  DieselNetParams p;
  p.buses = 2;
  p.routes = 1;  // both buses on the same route
  p.days = 200;
  p.sameRouteMeetingsPerDay = 3.0;
  p.seed = 13;
  const auto trace = generateDieselNet(p);
  const double perDay =
      static_cast<double>(trace.contactCount()) / p.days;
  EXPECT_NEAR(perDay, 3.0, 0.3);
}

TEST(DieselNet, FrequentPairsAtThreeDayPeriodIncludeSameRoute) {
  DieselNetParams p;
  p.buses = 8;
  p.routes = 2;
  p.days = 12;
  p.seed = 17;
  const auto trace = generateDieselNet(p);
  const auto pairs = frequentContactPairs(trace, kDieselNetFrequentPeriod);
  // With 2 same-route meetings/day, same-route pairs all qualify.
  std::size_t sameRouteFrequent = 0;
  for (const auto& [a, b] : pairs) {
    if (routeOf(p, a) == routeOf(p, b)) {
      ++sameRouteFrequent;
    }
  }
  // 2 routes x C(4,2) = 12 same-route pairs in total.
  EXPECT_GE(sameRouteFrequent, 10u);
}

TEST(DieselNet, ZeroBackgroundRateIsolatesUnrelatedPairs) {
  DieselNetParams p;
  p.buses = 8;
  p.routes = 4;
  p.days = 4;
  p.backgroundMeetingsPerDay = 0.0;
  p.connectedRouteMeetingsPerDay = 0.0;
  p.seed = 19;
  const auto trace = generateDieselNet(p);
  for (const Contact& c : trace.contacts()) {
    EXPECT_EQ(routeOf(p, c.members[0]),
              routeOf(p, c.members[1]));
  }
}

}  // namespace
}  // namespace hdtn::trace
