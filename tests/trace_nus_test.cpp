#include "src/trace/nus.hpp"

#include <gtest/gtest.h>

#include <set>

#include "src/trace/trace_stats.hpp"

namespace hdtn::trace {
namespace {

NusParams smallParams() {
  NusParams p;
  p.students = 30;
  p.courses = 6;
  p.coursesPerStudent = 2;
  p.days = 4;
  p.attendanceRate = 1.0;
  p.seed = 3;
  return p;
}

TEST(Nus, ScheduleStructure) {
  const NusParams p = smallParams();
  const NusSchedule schedule = buildNusSchedule(p);
  ASSERT_EQ(schedule.enrollment.size(), 6u);
  ASSERT_EQ(schedule.sessionStart.size(), 6u);
  std::size_t totalEnrollments = 0;
  for (const auto& roster : schedule.enrollment) {
    totalEnrollments += roster.size();
    for (std::size_t i = 1; i < roster.size(); ++i) {
      EXPECT_LT(roster[i - 1], roster[i]);  // sorted, unique
    }
  }
  EXPECT_EQ(totalEnrollments, 30u * 2u);
  for (const auto& starts : schedule.sessionStart) {
    ASSERT_EQ(starts.size(), 1u);
    EXPECT_GE(starts[0], p.dayStart);
    EXPECT_LE(starts[0] + p.sessionDuration, p.dayEnd);
    EXPECT_EQ(starts[0] % kHour, 0);
  }
}

TEST(Nus, ScheduleIndependentOfAttendanceRate) {
  NusParams a = smallParams();
  NusParams b = smallParams();
  b.attendanceRate = 0.3;
  const auto schedA = buildNusSchedule(a);
  const auto schedB = buildNusSchedule(b);
  EXPECT_EQ(schedA.enrollment, schedB.enrollment);
  EXPECT_EQ(schedA.sessionStart, schedB.sessionStart);
}

TEST(Nus, FullAttendanceContactsMatchRosters) {
  const NusParams p = smallParams();
  const NusSchedule schedule = buildNusSchedule(p);
  const auto trace = generateNus(p, schedule);
  // With attendance 1.0, every session with >= 2 enrolled students emits
  // one clique contact per day with exactly the roster as members.
  std::size_t expected = 0;
  for (const auto& roster : schedule.enrollment) {
    if (roster.size() >= 2) ++expected;
  }
  EXPECT_EQ(trace.contactCount(), expected * static_cast<std::size_t>(p.days));
  for (const Contact& c : trace.contacts()) {
    bool matchesSomeRoster = false;
    for (const auto& roster : schedule.enrollment) {
      if (c.members == roster) matchesSomeRoster = true;
    }
    EXPECT_TRUE(matchesSomeRoster);
  }
}

TEST(Nus, SessionsRepeatDaily) {
  const NusParams p = smallParams();
  const auto trace = generateNus(p);
  std::set<SimTime> daysSeen;
  for (const Contact& c : trace.contacts()) {
    daysSeen.insert(c.start / kDay);
    EXPECT_EQ(c.duration(), p.sessionDuration);
  }
  EXPECT_EQ(daysSeen.size(), static_cast<std::size_t>(p.days));
}

TEST(Nus, LowerAttendanceShrinksCliques) {
  NusParams full = smallParams();
  NusParams half = smallParams();
  half.attendanceRate = 0.5;
  const auto schedule = buildNusSchedule(full);
  const auto fullTrace = generateNus(full, schedule);
  const auto halfTrace = generateNus(half, schedule);
  const auto fullStats = summarize(fullTrace);
  const auto halfStats = summarize(halfTrace);
  EXPECT_GT(fullStats.meanCliqueSize, halfStats.meanCliqueSize);
}

TEST(Nus, ZeroAttendanceYieldsNoContacts) {
  NusParams p = smallParams();
  p.attendanceRate = 0.0;
  EXPECT_EQ(generateNus(p).contactCount(), 0u);
}

TEST(Nus, DeterministicInSeed) {
  const auto a = generateNus(smallParams());
  const auto b = generateNus(smallParams());
  ASSERT_EQ(a.contactCount(), b.contactCount());
  for (std::size_t i = 0; i < a.contactCount(); ++i) {
    EXPECT_EQ(a.contacts()[i], b.contacts()[i]);
  }
}

TEST(Nus, ClassmatesAreFrequentContactsAtOneDayPeriod) {
  // With full attendance and daily sessions, every pair sharing a course
  // meets every day.
  const NusParams p = smallParams();
  const auto schedule = buildNusSchedule(p);
  const auto trace = generateNus(p, schedule);
  const auto pairs = frequentContactPairs(trace, kNusFrequentPeriod);
  std::set<NodePair> frequent(pairs.begin(), pairs.end());
  for (const auto& roster : schedule.enrollment) {
    for (std::size_t i = 0; i < roster.size(); ++i) {
      for (std::size_t j = i + 1; j < roster.size(); ++j) {
        EXPECT_TRUE(frequent.contains(makePair(roster[i], roster[j])));
      }
    }
  }
}

TEST(Nus, MultipleSessionsPerDaySupported) {
  NusParams p = smallParams();
  p.sessionsPerCourseDay = 2;
  const auto schedule = buildNusSchedule(p);
  for (const auto& starts : schedule.sessionStart) {
    EXPECT_EQ(starts.size(), 2u);
  }
  const auto trace = generateNus(p, schedule);
  EXPECT_GT(trace.contactCount(), generateNus(smallParams()).contactCount());
}

}  // namespace
}  // namespace hdtn::trace
