#include "src/util/random.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace hdtn {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the full 256-bit state from SplitMix64 as recommended by the
  // xoshiro authors; guarantees a non-zero state.
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t salt) {
  std::uint64_t seed = (*this)() ^ (salt * 0x2545f4914f6cdd1dull);
  return Rng(seed);
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ull) - (~0ull) % span;
  std::uint64_t r;
  do {
    r = (*this)();
  } while (r >= limit);
  return lo + static_cast<std::int64_t>(r % span);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  assert(mean > 0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

std::size_t Rng::pickIndex(std::size_t size) {
  assert(size > 0);
  return static_cast<std::size_t>(
      uniformInt(0, static_cast<std::int64_t>(size) - 1));
}

Popularity samplePopularity(Rng& rng, double lambda) {
  assert(lambda > 0);
  const double x = rng.uniform();
  const double p = -std::log(1.0 - x * (1.0 - std::exp(-lambda))) / lambda;
  return std::clamp(p, 0.0, 1.0);
}

double popularityLambdaForFilesPerDay(int filesPerDay) {
  assert(filesPerDay > 0);
  return static_cast<double>(filesPerDay) / 2.0;
}

std::vector<NodeId> cyclicOrder(std::span<const NodeId> members) {
  std::vector<NodeId> order(members.begin(), members.end());
  std::sort(order.begin(), order.end());
  // Seed with the sum of the ids so that every clique member computes the
  // same permutation without any coordination (paper Section V-B).
  std::uint64_t seed = 0;
  for (NodeId id : order) seed += id.value;
  Rng rng(seed);
  rng.shuffle(order);
  return order;
}

}  // namespace hdtn
