#include "src/trace/contact_trace.hpp"

#include <gtest/gtest.h>

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

TEST(ContactTrace, AddContactSortsAndDedupsMembers) {
  ContactTrace t("t", 0);
  ASSERT_TRUE(t.addContact(makeContact(0, 10, {3, 1, 3, 2})));
  const Contact& c = t.contacts()[0];
  EXPECT_EQ(c.members,
            (std::vector<NodeId>{NodeId(1), NodeId(2), NodeId(3)}));
}

TEST(ContactTrace, RejectsDegenerateContacts) {
  ContactTrace t("t", 0);
  EXPECT_FALSE(t.addContact(makeContact(0, 10, {5})));       // one member
  EXPECT_FALSE(t.addContact(makeContact(0, 10, {5, 5})));    // dup only
  EXPECT_FALSE(t.addContact(makeContact(10, 10, {1, 2})));   // zero length
  EXPECT_FALSE(t.addContact(makeContact(10, 5, {1, 2})));    // negative
  EXPECT_EQ(t.contactCount(), 0u);
}

TEST(ContactTrace, NodeCountGrowsWithMembers) {
  ContactTrace t("t", 2);
  t.addContact(makeContact(0, 5, {0, 7}));
  EXPECT_EQ(t.nodeCount(), 8u);
  EXPECT_EQ(t.allNodes().size(), 8u);
}

TEST(ContactTrace, SortByStartOrdersContacts) {
  ContactTrace t("t", 4);
  t.addContact(makeContact(50, 60, {0, 1}));
  t.addContact(makeContact(10, 20, {2, 3}));
  t.addContact(makeContact(10, 15, {0, 2}));
  t.sortByStart();
  EXPECT_EQ(t.contacts()[0].end, 15);
  EXPECT_EQ(t.contacts()[1].end, 20);
  EXPECT_EQ(t.contacts()[2].start, 50);
}

TEST(ContactTrace, EndTimeAndEmpty) {
  ContactTrace t("t", 2);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.endTime(), 0);
  t.addContact(makeContact(5, 25, {0, 1}));
  t.addContact(makeContact(0, 10, {0, 1}));
  EXPECT_EQ(t.endTime(), 25);
}

TEST(ContactTrace, PairwiseOnlyDetection) {
  ContactTrace t("t", 3);
  t.addContact(makeContact(0, 10, {0, 1}));
  EXPECT_TRUE(t.isPairwiseOnly());
  t.addContact(makeContact(0, 10, {0, 1, 2}));
  EXPECT_FALSE(t.isPairwiseOnly());
}

TEST(ContactTrace, DurationAndPairwiseAccessors) {
  const Contact c = makeContact(10, 45, {1, 2});
  EXPECT_EQ(c.duration(), 35);
  EXPECT_TRUE(c.isPairwise());
}

}  // namespace
}  // namespace hdtn::trace
