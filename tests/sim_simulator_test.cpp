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

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  SimTime when = -1;
  sim.at(100, [&] {
    sim.after(50, [&] { when = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(when, 150);
}

TEST(Simulator, EveryRepeatsUntilHorizon) {
  Simulator sim;
  std::vector<SimTime> ticks;
  sim.every(10, 10, [&](SimTime now) { ticks.push_back(now); });
  sim.runUntil(45);
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (SimTime t = 1; t <= 5; ++t) sim.at(t, [] {});
  sim.run();
  EXPECT_EQ(sim.executedEvents(), 5u);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, PeriodicTaskEndsAtItsRunHorizon) {
  // `every` is documented to repeat "until the horizon passed to run()":
  // the tick at 30 does not reschedule past horizon 35, so a later run
  // does not revive the chain.
  Simulator sim;
  int count = 0;
  sim.every(10, 10, [&](SimTime) { ++count; });
  sim.runUntil(35);
  EXPECT_EQ(count, 3);
  sim.runUntil(65);
  EXPECT_EQ(count, 3);
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

TEST(Simulator, RunOneKeepsPeriodicTasksAlive) {
  // Stepping has no horizon, so `every` reschedules indefinitely — matching
  // run()'s semantics, one event at a time.
  Simulator sim;
  int count = 0;
  sim.every(10, 10, [&](SimTime) { ++count; });
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(sim.runOne());
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.now(), 40);
  EXPECT_EQ(sim.pendingEvents(), 1u);  // the next occurrence is queued
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
