// Synthetic NUS-student-style campus trace generator.
//
// The paper's synthetic trace derives student contacts from National
// University of Singapore class schedules (Srinivasan et al., MobiCom'06):
// "students can receive messages from each other if and only if they are in
// the same classroom". We reproduce that construction directly: students are
// enrolled in courses; each course holds sessions at fixed daily time slots;
// every held session emits one clique contact over the students who attend
// it. The `attendanceRate` parameter — each enrolled student independently
// attends a given session with this probability — is the x-axis of the
// paper's Figure 3(f).
//
// Sessions recur every day of the simulated period (the generator does not
// model weekends; the paper's frequent-contact rule for this trace is
// "contacts at least once per day", which presumes daily class activity).
#pragma once

#include <cstdint>
#include <vector>

#include "src/trace/contact_trace.hpp"
#include "src/util/random.hpp"

namespace hdtn::trace {

struct NusParams {
  int students = 200;
  int courses = 40;
  /// Courses each student enrolls in.
  int coursesPerStudent = 4;
  /// Sessions each course holds per day.
  int sessionsPerCourseDay = 1;
  int days = 14;
  /// Probability an enrolled student attends a given session.
  double attendanceRate = 0.85;
  /// Length of one class session.
  Duration sessionDuration = 2 * kHour;
  /// Sessions are scheduled on the hour within this window.
  SimTime dayStart = 8 * kHour;
  SimTime dayEnd = 18 * kHour;
  std::uint64_t seed = 1;
};

/// The static schedule: which students take which course, and at what daily
/// time slot each course meets. Exposed so tests and the engine can reason
/// about expected co-presence.
struct NusSchedule {
  /// enrollment[c] = sorted student ids enrolled in course c.
  std::vector<std::vector<NodeId>> enrollment;
  /// sessionStart[c][k] = daily start offset of course c's k-th session.
  std::vector<std::vector<SimTime>> sessionStart;
};

/// Builds the deterministic schedule for the parameters (depends only on
/// params.seed and the structural fields, not on attendanceRate).
[[nodiscard]] NusSchedule buildNusSchedule(const NusParams& params);

/// Generates the full trace: one clique contact per held session per day
/// over that session's attendees (sessions with fewer than two attendees
/// produce no contact).
[[nodiscard]] ContactTrace generateNus(const NusParams& params);

/// Same, but over a pre-built schedule; attendance is re-drawn from
/// params.seed. Used to sweep attendanceRate with a fixed schedule.
[[nodiscard]] ContactTrace generateNus(const NusParams& params,
                                       const NusSchedule& schedule);

}  // namespace hdtn::trace
