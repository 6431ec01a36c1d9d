#include "src/util/stats.hpp"

#include <gtest/gtest.h>


namespace hdtn {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SampleSet, QuantilesOfKnownData) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.75), 4.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.1), 1.4);  // interpolated
}

TEST(SampleSet, UnsortedInsertionOrder) {
  SampleSet s;
  for (double x : {9.0, 1.0, 5.0, 3.0, 7.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleSet, Mean) {
  SampleSet s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(Histogram, BucketAssignment) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bucket 0
  h.add(1.99);  // bucket 0
  h.add(2.0);   // bucket 1
  h.add(9.99);  // bucket 4
  h.add(-1.0);  // underflow
  h.add(10.0);  // overflow (hi is exclusive)
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(Histogram, BucketBounds) {
  Histogram h(10.0, 20.0, 4);
  EXPECT_DOUBLE_EQ(h.bucketLow(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bucketHigh(0), 12.5);
  EXPECT_DOUBLE_EQ(h.bucketLow(3), 17.5);
  EXPECT_DOUBLE_EQ(h.bucketHigh(3), 20.0);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string rendered = h.render(10);
  EXPECT_NE(rendered.find("2"), std::string::npos);
  EXPECT_NE(rendered.find('#'), std::string::npos);
}

}  // namespace
}  // namespace hdtn
