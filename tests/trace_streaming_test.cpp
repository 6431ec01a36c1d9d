#include "src/trace/streaming.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/trace/dieselnet.hpp"
#include "src/trace/nus.hpp"

namespace hdtn::trace {
namespace {

std::vector<Contact> drain(ContactStream& stream) {
  std::vector<Contact> out;
  stream.reset();
  while (std::optional<Contact> c = stream.next()) out.push_back(*c);
  return out;
}

void expectStreamEqualsTrace(ContactStream& stream, const ContactTrace& t) {
  const std::vector<Contact> streamed = drain(stream);
  ASSERT_EQ(streamed.size(), t.contactCount());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], t.contacts()[i]) << "contact " << i;
  }
  EXPECT_EQ(stream.nodeCount(), t.nodeCount());
  EXPECT_EQ(stream.endTime(), t.endTime());
}

ContactTrace dieselNetTrace() {
  DieselNetParams p;
  p.buses = 10;
  p.routes = 2;
  p.days = 2;
  p.seed = 9;
  return generateDieselNet(p);
}

ContactTrace nusTrace() {
  NusParams p;
  p.students = 30;
  p.courses = 6;
  p.coursesPerStudent = 2;
  p.days = 3;
  p.attendanceRate = 0.8;
  p.seed = 5;
  return generateNus(p);
}

TEST(Streaming, ResetReplaysIdenticalSequence) {
  const ContactTrace trace = nusTrace();
  MaterializedStream stream(trace);
  const std::vector<Contact> first = drain(stream);
  const std::vector<Contact> second = drain(stream);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Streaming, MaterializedStreamAdaptsSortedTrace) {
  const ContactTrace trace = dieselNetTrace();
  MaterializedStream stream(trace);
  expectStreamEqualsTrace(stream, trace);
}

TEST(Streaming, MaterializeRebuildsTheTrace) {
  const ContactTrace direct = dieselNetTrace();
  MaterializedStream stream(direct);
  // A partly consumed stream is rewound before draining.
  ASSERT_TRUE(stream.next().has_value());
  const ContactTrace rebuilt = materialize(stream);
  ASSERT_EQ(rebuilt.contactCount(), direct.contactCount());
  for (std::size_t i = 0; i < rebuilt.contactCount(); ++i) {
    EXPECT_EQ(rebuilt.contacts()[i], direct.contacts()[i]);
  }
  EXPECT_EQ(rebuilt.nodeCount(), direct.nodeCount());
  EXPECT_EQ(rebuilt.name(), direct.name());
}

TEST(Streaming, PartitionHintDefaultsToEmpty) {
  const ContactTrace trace = dieselNetTrace();
  MaterializedStream stream(trace);
  EXPECT_TRUE(stream.partitionHint().empty());
}

}  // namespace
}  // namespace hdtn::trace
