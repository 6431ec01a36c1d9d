#include "src/util/bloom.hpp"

#include <cassert>
#include <cmath>

namespace hdtn {
namespace {

// SplitMix64 finalizer: a strong 64-bit mixer for double hashing.
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

BloomFilter::BloomFilter(std::size_t bits, int hashes)
    : words_((bits + 63) / 64, 0), hashes_(hashes) {
  assert(bits > 0);
  assert(hashes > 0);
}

BloomFilter BloomFilter::forCapacity(std::size_t expectedElements,
                                     double falsePositiveRate) {
  assert(expectedElements > 0);
  assert(falsePositiveRate > 0.0 && falsePositiveRate < 1.0);
  const double ln2 = std::log(2.0);
  const double m = -static_cast<double>(expectedElements) *
                   std::log(falsePositiveRate) / (ln2 * ln2);
  const double k = m / static_cast<double>(expectedElements) * ln2;
  return BloomFilter(static_cast<std::size_t>(std::ceil(m)),
                     std::max(1, static_cast<int>(std::lround(k))));
}

std::uint64_t BloomFilter::probe(std::uint64_t key, int i) const {
  // Kirsch-Mitzenmacher double hashing: h_i = h1 + i * h2.
  const std::uint64_t h1 = mix(key ^ 0x9e3779b97f4a7c15ull);
  const std::uint64_t h2 = mix(key + 0x2545f4914f6cdd1dull) | 1;
  return (h1 + static_cast<std::uint64_t>(i) * h2) % (words_.size() * 64);
}

void BloomFilter::insert(std::uint64_t key) {
  for (int i = 0; i < hashes_; ++i) {
    const std::uint64_t bit = probe(key, i);
    words_[bit / 64] |= 1ull << (bit % 64);
  }
}

bool BloomFilter::mayContain(std::uint64_t key) const {
  for (int i = 0; i < hashes_; ++i) {
    const std::uint64_t bit = probe(key, i);
    if ((words_[bit / 64] & (1ull << (bit % 64))) == 0) return false;
  }
  return true;
}

}  // namespace hdtn
