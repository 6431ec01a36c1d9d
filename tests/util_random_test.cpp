#include "src/util/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "src/util/stats.hpp"

namespace hdtn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng parent1(99), parent2(99);
  Rng childA = parent1.fork(1);
  Rng childB = parent2.fork(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(childA(), childB());
  }
  Rng parent3(99);
  Rng childC = parent3.fork(2);
  Rng parent4(99);
  Rng childD = parent4.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (childC() == childD()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  RunningStats stats;
  RunningStats squares;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.add(u);
    squares.add(u * u);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  const double variance = squares.mean() - stats.mean() * stats.mean();
  EXPECT_NEAR(std::sqrt(variance), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniformInt(3, 9);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniformInt(5, 5), 5);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.exponential(42.0);
    ASSERT_GT(x, 0.0);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 42.0, 1.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, PickIndexInBounds) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.pickIndex(13), 13u);
  }
}

// --- paper's popularity distribution ------------------------------------

TEST(Popularity, SamplesAreProbabilities) {
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    const double p = samplePopularity(rng, 20.0);
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0);
  }
}

TEST(Popularity, MeanApproximatelyInverseLambda) {
  // The paper chooses lambda = n/2 so that n * E[p] ~= 2 queries per node
  // per day. Check E[p] ~= 1/lambda for a representative lambda.
  Rng rng(43);
  const double lambda = 20.0;
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(samplePopularity(rng, lambda));
  // Exact mean of the truncated-exponential inverse CDF is close to
  // 1/lambda for lambda >> 1.
  EXPECT_NEAR(stats.mean(), 1.0 / lambda, 0.01);
}

TEST(Popularity, LambdaRuleGivesTwoQueriesPerNodePerDay) {
  for (int filesPerDay : {10, 40, 100}) {
    const double lambda = popularityLambdaForFilesPerDay(filesPerDay);
    EXPECT_DOUBLE_EQ(lambda, filesPerDay / 2.0);
    Rng rng(47);
    double expectedQueries = 0.0;
    for (int i = 0; i < filesPerDay; ++i) {
      expectedQueries += samplePopularity(rng, lambda);
    }
    // n draws of mean ~1/lambda each -> ~2, loose tolerance for small n.
    EXPECT_NEAR(expectedQueries, 2.0, 1.5);
  }
}

TEST(Popularity, InverseCdfMatchesClosedForm) {
  // p = -log(1 - x(1 - e^-lambda)) / lambda evaluated at known x.
  const double lambda = 10.0;
  // x = 0 -> p = 0; x -> 1 gives p -> 1.
  Rng zero(0);
  // Direct check of the formula at x = 0.5 via a tiny shim: sample many and
  // verify the median matches the closed form at x = 0.5.
  Rng rng(53);
  SampleSet samples;
  for (int i = 0; i < 100001; ++i) samples.add(samplePopularity(rng, lambda));
  const double expectedMedian =
      -std::log(1.0 - 0.5 * (1.0 - std::exp(-lambda))) / lambda;
  EXPECT_NEAR(samples.median(), expectedMedian, 0.005);
}

// --- cyclic order ---------------------------------------------------------

TEST(CyclicOrder, SamePermutationForSameMembers) {
  const std::vector<NodeId> a{NodeId(3), NodeId(1), NodeId(7)};
  const std::vector<NodeId> b{NodeId(7), NodeId(3), NodeId(1)};  // reordered
  EXPECT_EQ(cyclicOrder(a), cyclicOrder(b));
}

TEST(CyclicOrder, IsPermutationOfMembers) {
  const std::vector<NodeId> members{NodeId(2), NodeId(4), NodeId(9),
                                    NodeId(12), NodeId(40)};
  auto order = cyclicOrder(members);
  ASSERT_EQ(order.size(), members.size());
  auto sorted = order;
  std::sort(sorted.begin(), sorted.end());
  auto expected = members;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sorted, expected);
}

TEST(CyclicOrder, DifferentCliquesGetDifferentOrders) {
  // Not guaranteed for every pair, but for these sets the seeds (id sums)
  // differ, and with 8 elements a coincidental identical permutation is
  // vanishingly unlikely.
  std::vector<NodeId> a, b;
  for (std::uint32_t i = 0; i < 8; ++i) a.emplace_back(i);
  for (std::uint32_t i = 1; i < 9; ++i) b.emplace_back(i);
  const auto orderA = cyclicOrder(a);
  const auto orderB = cyclicOrder(b);
  std::vector<std::uint32_t> rawA, rawB;
  for (auto n : orderA) rawA.push_back(n.value);
  for (auto n : orderB) rawB.push_back(n.value - 1);
  EXPECT_NE(rawA, rawB);
}

// Parameterized sweep: uniformInt stays unbiased across ranges.
class UniformIntSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(UniformIntSweep, MeanIsCenterOfRange) {
  const std::int64_t hi = GetParam();
  Rng rng(61);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(static_cast<double>(rng.uniformInt(0, hi)));
  }
  const double expected = static_cast<double>(hi) / 2.0;
  EXPECT_NEAR(stats.mean(), expected, std::max(0.05, expected * 0.05));
}

INSTANTIATE_TEST_SUITE_P(Ranges, UniformIntSweep,
                         ::testing::Values<std::int64_t>(1, 2, 7, 100, 1000,
                                                         1 << 20));

}  // namespace
}  // namespace hdtn
