#include "src/trace/nus.hpp"

#include <algorithm>
#include <cassert>

namespace hdtn::trace {

NusSchedule buildNusSchedule(const NusParams& params) {
  assert(params.students >= 2);
  assert(params.courses >= 1);
  assert(params.coursesPerStudent >= 1);
  assert(params.coursesPerStudent <= params.courses);
  assert(params.sessionsPerCourseDay >= 1);
  assert(params.dayEnd > params.dayStart);

  // Schedule structure must not depend on attendanceRate, so derive its rng
  // purely from the seed.
  Rng rng(params.seed ^ 0xabcdef1234567890ull);
  NusSchedule schedule;
  schedule.enrollment.resize(static_cast<std::size_t>(params.courses));
  schedule.sessionStart.resize(static_cast<std::size_t>(params.courses));

  // Enrollment: each student picks coursesPerStudent distinct courses.
  std::vector<int> allCourses(static_cast<std::size_t>(params.courses));
  for (int c = 0; c < params.courses; ++c) {
    allCourses[static_cast<std::size_t>(c)] = c;
  }
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(params.students);
       ++s) {
    rng.shuffle(allCourses);
    for (int k = 0; k < params.coursesPerStudent; ++k) {
      schedule.enrollment[static_cast<std::size_t>(allCourses[(std::size_t)k])]
          .emplace_back(s);
    }
  }
  for (auto& roster : schedule.enrollment) {
    std::sort(roster.begin(), roster.end());
  }

  // Session slots: on-the-hour starts such that the session fits the day.
  const SimTime lastSlot = params.dayEnd - params.sessionDuration;
  const auto slotCount =
      static_cast<std::int64_t>((lastSlot - params.dayStart) / kHour) + 1;
  assert(slotCount >= 1);
  for (int c = 0; c < params.courses; ++c) {
    auto& starts = schedule.sessionStart[static_cast<std::size_t>(c)];
    for (int k = 0; k < params.sessionsPerCourseDay; ++k) {
      const auto slot = rng.uniformInt(0, slotCount - 1);
      starts.push_back(params.dayStart + slot * kHour);
    }
    std::sort(starts.begin(), starts.end());
  }
  return schedule;
}

ContactTrace generateNus(const NusParams& params) {
  return generateNus(params, buildNusSchedule(params));
}

ContactTrace generateNus(const NusParams& params,
                         const NusSchedule& schedule) {
  assert(schedule.enrollment.size() ==
         static_cast<std::size_t>(params.courses));
  ContactTrace out("nus", static_cast<std::size_t>(params.students));
  Rng rng(params.seed ^ 0x5eed5eed5eed5eedull);

  for (int day = 0; day < params.days; ++day) {
    const SimTime dayBase = static_cast<SimTime>(day) * kDay;
    for (int c = 0; c < params.courses; ++c) {
      const auto& roster = schedule.enrollment[static_cast<std::size_t>(c)];
      for (SimTime start : schedule.sessionStart[static_cast<std::size_t>(c)]) {
        Contact contact;
        contact.start = dayBase + start;
        contact.end = contact.start + params.sessionDuration;
        for (NodeId student : roster) {
          if (rng.chance(params.attendanceRate)) {
            contact.members.push_back(student);
          }
        }
        // addContact rejects sessions with fewer than two attendees.
        out.addContact(std::move(contact));
      }
    }
  }
  out.sortByStart();
  return out;
}

}  // namespace hdtn::trace
