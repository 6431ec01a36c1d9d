#include "src/util/bloom.hpp"

#include <gtest/gtest.h>

#include "src/util/random.hpp"

namespace hdtn {
namespace {

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter filter(1024, 4);
  for (std::uint64_t k = 0; k < 50; ++k) filter.insert(k * 977);
  for (std::uint64_t k = 0; k < 50; ++k) {
    EXPECT_TRUE(filter.mayContain(k * 977));
  }
}

TEST(BloomFilter, EmptyContainsNothing) {
  BloomFilter filter(256, 3);
  for (std::uint64_t k = 1; k < 100; ++k) {
    EXPECT_FALSE(filter.mayContain(k));
  }
}

TEST(BloomFilter, FalsePositiveRateNearDesign) {
  const double target = 0.02;
  const std::size_t n = 1000;
  BloomFilter filter = BloomFilter::forCapacity(n, target);
  Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) filter.insert(rng());
  int falsePositives = 0;
  const int probes = 100000;
  for (int i = 0; i < probes; ++i) {
    // Fresh keys from an independent stream (collision chance ~ 0).
    if (filter.mayContain(rng() | (1ull << 63))) ++falsePositives;
  }
  const double rate = static_cast<double>(falsePositives) / probes;
  EXPECT_LT(rate, target * 2.0);
  EXPECT_GT(rate, target / 10.0);  // not degenerate either
}

TEST(BloomFilter, ForCapacityGeometryReasonable) {
  const BloomFilter filter = BloomFilter::forCapacity(1000, 0.01);
  // Optimal: ~9585 bits, ~7 hashes.
  EXPECT_NEAR(static_cast<double>(filter.bitCount()), 9585.0, 100.0);
  EXPECT_EQ(filter.hashCount(), 7);
}

}  // namespace
}  // namespace hdtn
