#include "src/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hdtn::sim {
namespace {

TEST(Simulator, RunUntilHorizonExclusive) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.at(10, [&] { fired.push_back(10); });
  sim.at(20, [&] { fired.push_back(20); });
  sim.at(30, [&] { fired.push_back(30); });
  sim.runUntil(30);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  sim.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30}));
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (SimTime t = 1; t <= 5; ++t) sim.at(t, [] {});
  sim.run();
  EXPECT_EQ(sim.executedEvents(), 5u);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, RunOneExecutesExactlyOneEvent) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.at(10, [&] { fired.push_back(10); });
  sim.at(20, [&] { fired.push_back(20); });
  EXPECT_TRUE(sim.runOne());
  EXPECT_EQ(fired, (std::vector<SimTime>{10}));
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.executedEvents(), 1u);
  EXPECT_TRUE(sim.runOne());
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  // Empty queue: nothing runs, clock and counters hold.
  EXPECT_FALSE(sim.runOne());
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.executedEvents(), 2u);
}

TEST(Simulator, OneShotEventsSurviveAcrossRuns) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.at(10, [&] { fired.push_back(10); });
  sim.at(50, [&] { fired.push_back(50); });
  sim.runUntil(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10}));
  sim.runUntil(100);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 50}));
}

}  // namespace
}  // namespace hdtn::sim
