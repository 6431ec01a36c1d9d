#include "src/trace/trace_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/util/random.hpp"
#include "tests/reference_oracles.hpp"

namespace hdtn::trace {
namespace {

Contact makeContact(SimTime start, SimTime end,
                    std::initializer_list<std::uint32_t> members) {
  Contact c;
  c.start = start;
  c.end = end;
  for (auto m : members) c.members.emplace_back(m);
  return c;
}

TEST(MakePair, Orders) {
  EXPECT_EQ(makePair(NodeId(5), NodeId(2)),
            (NodePair{NodeId(2), NodeId(5)}));
  EXPECT_EQ(makePair(NodeId(2), NodeId(5)),
            (NodePair{NodeId(2), NodeId(5)}));
}

TEST(InterContactTimes, StartToStartGaps) {
  ContactTrace t("t", 2);
  t.addContact(makeContact(0, 10, {0, 1}));
  t.addContact(makeContact(100, 110, {0, 1}));
  t.addContact(makeContact(400, 410, {0, 1}));
  const auto gaps = interContactTimes(t);
  ASSERT_EQ(gaps.count(), 2u);
  EXPECT_DOUBLE_EQ(gaps.min(), 100.0);
  EXPECT_DOUBLE_EQ(gaps.max(), 300.0);
}

TEST(Summarize, BasicFields) {
  ContactTrace t("t", 4);
  t.addContact(makeContact(0, 100, {0, 1}));
  t.addContact(makeContact(kDay, kDay + 300, {0, 1, 2}));
  const auto s = summarize(t);
  EXPECT_EQ(s.nodeCount, 4u);
  EXPECT_EQ(s.contactCount, 2u);
  EXPECT_EQ(s.span, kDay + 300);
  EXPECT_DOUBLE_EQ(s.meanContactDuration, 200.0);
  EXPECT_DOUBLE_EQ(s.meanCliqueSize, 2.5);
}

TEST(Summarize, EmptyTrace) {
  ContactTrace t("t", 3);
  const auto s = summarize(t);
  EXPECT_EQ(s.contactCount, 0u);
  EXPECT_DOUBLE_EQ(s.meanContactDuration, 0.0);
}

TEST(FrequentContacts, RequiresContactInEveryWindow) {
  ContactTrace t("t", 4);
  // Pair (0,1): one contact every day for 3 days -> frequent at 1-day period.
  for (int day = 0; day < 3; ++day) {
    t.addContact(makeContact(day * kDay + kHour, day * kDay + kHour + 60,
                             {0, 1}));
  }
  // Pair (2,3): days 0 and 2 only -> not frequent (misses day 1).
  t.addContact(makeContact(kHour, kHour + 60, {2, 3}));
  t.addContact(makeContact(2 * kDay + kHour, 2 * kDay + kHour + 60, {2, 3}));
  const auto pairs = frequentContactPairs(t, kDay);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], makePair(NodeId(0), NodeId(1)));
}

TEST(FrequentContacts, LongerPeriodAdmitsSparserPairs) {
  ContactTrace t("t", 2);
  // One contact every other day across 6 days.
  for (int day = 0; day < 6; day += 2) {
    t.addContact(makeContact(day * kDay + kHour, day * kDay + kHour + 60,
                             {0, 1}));
  }
  EXPECT_TRUE(frequentContactPairs(t, kDay).empty());
  EXPECT_EQ(frequentContactPairs(t, 2 * kDay).size(), 1u);
}

TEST(FrequentContacts, ContactStraddlingWindowCountsForBoth) {
  ContactTrace t("t", 2);
  // Contact spans the day-1 boundary; second window also needs coverage.
  t.addContact(makeContact(kDay - 30, kDay + 30, {0, 1}));
  // Trace must span two full windows: pad with a later contact of another
  // pair to extend the horizon? Use the same pair near the end instead.
  t.addContact(
      makeContact(2 * kDay - 3600, 2 * kDay - 3000, {0, 1}));
  const auto pairs = frequentContactPairs(t, kDay);
  ASSERT_EQ(pairs.size(), 1u);
}

TEST(FrequentContactLists, SymmetricAndSorted) {
  ContactTrace t("t", 3);
  for (int day = 0; day < 2; ++day) {
    t.addContact(makeContact(day * kDay + 10, day * kDay + 70, {0, 2}));
  }
  const auto lists = frequentContactLists(t, kDay);
  ASSERT_EQ(lists.size(), 3u);
  EXPECT_EQ(lists[0], (std::vector<NodeId>{NodeId(2)}));
  EXPECT_TRUE(lists[1].empty());
  EXPECT_EQ(lists[2], (std::vector<NodeId>{NodeId(0)}));
}

TEST(FrequentContacts, EmptyTraceNoPairs) {
  ContactTrace t("t", 5);
  EXPECT_TRUE(frequentContactPairs(t, kDay).empty());
}

// Random traces against the map-of-sets reference: cliques of 2-48
// members, contacts straddling up to three window boundaries, a trailing
// partial window of any length, contacts in arrival order or sorted, and
// 1-150 windows (so more than one 64-bit word of window bits). Each trace
// has a regular group meeting in every window, so frequent pairs exist,
// and some of its meetings are dropped, so near misses exist too.
TEST(FrequentContacts, MatchesMapReferenceOnRandomTraces) {
  Rng rng(0xF8E0u);
  std::size_t frequentSeen = 0;
  bool multiWordSeen = false;
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const auto nodes = static_cast<std::uint32_t>(rng.uniformInt(2, 60));
    const Duration period = rng.uniformInt(50, 5000);
    const auto fullWindows = rng.uniformInt(1, 150);
    const SimTime span = fullWindows * period + rng.uniformInt(0, period - 1);
    multiWordSeen = multiWordSeen || fullWindows > 64;
    std::vector<std::uint32_t> all(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i) all[i] = i;
    const auto randomClique = [&](std::size_t size) {
      rng.shuffle(all);
      std::vector<NodeId> members;
      for (std::size_t i = 0; i < size; ++i) members.emplace_back(all[i]);
      return members;
    };
    ContactTrace t("t", nodes);
    const auto add = [&](SimTime start, SimTime end,
                         std::vector<NodeId> members) {
      Contact c;
      c.start = start;
      c.end = std::min(end, span);
      c.members = std::move(members);
      t.addContact(std::move(c));
    };
    const auto maxClique = static_cast<std::int64_t>(std::min(nodes, 48u));
    const std::vector<NodeId> group = randomClique(
        static_cast<std::size_t>(rng.uniformInt(2, std::min<std::int64_t>(
                                                       maxClique, 8))));
    for (std::int64_t w = 0; w * period < span; ++w) {
      if (rng.chance(0.05)) continue;  // a near miss for the whole group
      const SimTime start = w * period + rng.uniformInt(0, period - 1);
      add(start, start + rng.uniformInt(1, period), group);
    }
    const auto contacts = rng.uniformInt(0, 40);
    for (std::int64_t i = 0; i < contacts; ++i) {
      const SimTime start = rng.uniformInt(0, span - 1);
      const SimTime length = rng.uniformInt(1, 3 * period);
      add(start, start + length,
          randomClique(static_cast<std::size_t>(rng.uniformInt(2, maxClique))));
    }
    if (rng.chance(0.5)) t.sortByStart();
    for (const Duration p : {period, period / 2 + 1, 3 * period}) {
      const auto expected = frequentContactPairsReference(t, p);
      ASSERT_EQ(frequentContactPairs(t, p), expected) << "period " << p;
      frequentSeen += expected.size();
    }
  }
  EXPECT_GT(frequentSeen, 0u);
  EXPECT_TRUE(multiWordSeen);
}

}  // namespace
}  // namespace hdtn::trace
