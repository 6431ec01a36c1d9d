// Deterministic pseudo-random number generation for simulations.
//
// All stochastic behaviour in the library flows through Rng so that a run is
// exactly reproducible from its seed. The engine hands independent streams
// (derived via SplitMix64) to independent subsystems so that adding a random
// draw in one subsystem does not perturb another.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/util/types.hpp"

namespace hdtn {

/// xoshiro256** PRNG (Blackman & Vigna) seeded via SplitMix64.
/// Satisfies the C++ UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()();

  /// Derives an independent child stream; deterministic in (state, salt).
  [[nodiscard]] Rng fork(std::uint64_t salt);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with success probability p.
  bool chance(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Picks a uniformly random element index of a non-empty range size.
  std::size_t pickIndex(std::size_t size);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = pickIndex(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// The raw xoshiro256** state, for checkpointing a stream position.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

  /// Restores a stream position captured with state().
  void setState(const std::array<std::uint64_t, 4>& s) {
    for (std::size_t i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  std::uint64_t s_[4];
};

/// Samples file popularity using the paper's inverse-CDF construction
/// (Section VI-A): density ~ lambda * e^(-lambda * x), truncated/normalized
/// to [0, 1]:
///     p = -log(1 - x * (1 - e^-lambda)) / lambda,  x ~ U(0, 1).
/// Mean is approximately 1/lambda for large lambda.
[[nodiscard]] Popularity samplePopularity(Rng& rng, double lambda);

/// The paper sets lambda = n/2 for n new files per day so that each node
/// generates on average 2 queries per day.
[[nodiscard]] double popularityLambdaForFilesPerDay(int filesPerDay);

/// Deterministic cyclic broadcast order for the tit-for-tat download
/// scheduler (Section V-B): every member of a clique computes the same
/// permutation of `members` from a PRNG seeded with the sum of the ids.
[[nodiscard]] std::vector<NodeId> cyclicOrder(std::span<const NodeId> members);

}  // namespace hdtn
